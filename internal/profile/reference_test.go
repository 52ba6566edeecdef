package profile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// referenceDecode is the streaming decoder Decode replaced: it reads the
// sample through a bufio.Reader, one varint and one name at a time.
func referenceDecode(r io.Reader) (*Sample, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("profile: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("profile: bad magic %q", magic)
	}
	getUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	getVarint := func() (int64, error) { return binary.ReadVarint(br) }
	getString := func() (string, error) {
		n, err := getUvarint()
		if err != nil {
			return "", err
		}
		if n > maxCount {
			return "", fmt.Errorf("profile: string length %d too large", n)
		}
		if n > maxPrealloc {
			var sb strings.Builder
			if _, err := io.CopyN(&sb, br, int64(n)); err != nil {
				return "", err
			}
			return sb.String(), nil
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	ver, err := getUvarint()
	if err != nil {
		return nil, fmt.Errorf("profile: reading version: %w", err)
	}
	if ver != Version {
		return nil, fmt.Errorf("profile: unsupported version %d", ver)
	}
	s := &Sample{}
	seq, err := getVarint()
	if err != nil {
		return nil, err
	}
	// Field validation: a dump produced by Encode always carries
	// non-negative header fields and counters (they are cumulative counts
	// and virtual times), so anything negative is corruption — reject it
	// here rather than letting a fabricated value distort the downstream
	// gap arithmetic.
	if seq < 0 || seq > math.MaxInt32 {
		return nil, fmt.Errorf("profile: sequence number %d out of range", seq)
	}
	s.Seq = int(seq)
	ts, err := getVarint()
	if err != nil {
		return nil, err
	}
	if ts < 0 {
		return nil, fmt.Errorf("profile: negative timestamp %d", ts)
	}
	s.Timestamp = time.Duration(ts)
	sp, err := getVarint()
	if err != nil {
		return nil, err
	}
	if sp < 0 {
		return nil, fmt.Errorf("profile: negative sample period %d", sp)
	}
	s.SamplePeriod = time.Duration(sp)
	nf, err := getUvarint()
	if err != nil {
		return nil, err
	}
	if nf > maxCount {
		return nil, fmt.Errorf("profile: function count %d too large", nf)
	}
	if nf > 0 {
		s.Funcs = make([]FuncRecord, 0, min(nf, maxPrealloc))
	}
	for i := uint64(0); i < nf; i++ {
		s.Funcs = append(s.Funcs, FuncRecord{})
		f := &s.Funcs[i]
		if f.Name, err = getString(); err != nil {
			return nil, err
		}
		if f.Samples, err = getVarint(); err != nil {
			return nil, err
		}
		st, err := getVarint()
		if err != nil {
			return nil, err
		}
		f.SelfTime = time.Duration(st)
		if f.Calls, err = getVarint(); err != nil {
			return nil, err
		}
		if f.Samples < 0 || st < 0 || f.Calls < 0 {
			return nil, fmt.Errorf("profile: negative counters for %q", f.Name)
		}
	}
	na, err := getUvarint()
	if err != nil {
		return nil, err
	}
	if na > maxCount {
		return nil, fmt.Errorf("profile: arc count %d too large", na)
	}
	if na > 0 {
		s.Arcs = make([]Arc, 0, min(na, maxPrealloc))
	}
	for i := uint64(0); i < na; i++ {
		s.Arcs = append(s.Arcs, Arc{})
		a := &s.Arcs[i]
		if a.Caller, err = getString(); err != nil {
			return nil, err
		}
		if a.Callee, err = getString(); err != nil {
			return nil, err
		}
		if a.Count, err = getVarint(); err != nil {
			return nil, err
		}
	}
	return s, nil
}
