// codec.go is the canonical binary serialization of a Sample: the
// repository's internal wire format. Dump stores write it, the checkpoint
// WAL embeds it, and the gmon frontend registers it as its on-disk dump
// encoding. The magic is "IGMN" for compatibility with every dump, WAL, and
// fuzz corpus written before the type moved out of package gmon — the bytes
// are identical, only the owning package changed.
package profile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"
)

// Magic identifies the canonical binary sample format.
const Magic = "IGMN"

// Version is the binary format version written by Encode.
const Version = 1

// maxCount caps name/record counts while decoding, guarding against
// corrupted length prefixes.
const maxCount = 1 << 22

// maxPrealloc caps what Decode allocates on the word of a count or length
// prefix alone; past it, buffers grow with the bytes actually read, so a
// corrupt prefix costs memory in proportion to the input, not to the
// prefix.
const maxPrealloc = 1 << 10

// Encode writes the sample in the canonical binary format. The sample
// should be normalized first for deterministic output.
func (s *Sample) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putString := func(str string) error {
		if err := putUvarint(uint64(len(str))); err != nil {
			return err
		}
		_, err := bw.WriteString(str)
		return err
	}
	if err := putUvarint(Version); err != nil {
		return err
	}
	if err := putVarint(int64(s.Seq)); err != nil {
		return err
	}
	if err := putVarint(int64(s.Timestamp)); err != nil {
		return err
	}
	if err := putVarint(int64(s.SamplePeriod)); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(s.Funcs))); err != nil {
		return err
	}
	for _, f := range s.Funcs {
		if err := putString(f.Name); err != nil {
			return err
		}
		if err := putVarint(f.Samples); err != nil {
			return err
		}
		if err := putVarint(int64(f.SelfTime)); err != nil {
			return err
		}
		if err := putVarint(f.Calls); err != nil {
			return err
		}
	}
	if err := putUvarint(uint64(len(s.Arcs))); err != nil {
		return err
	}
	for _, a := range s.Arcs {
		if err := putString(a.Caller); err != nil {
			return err
		}
		if err := putString(a.Callee); err != nil {
			return err
		}
		if err := putVarint(a.Count); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a sample previously written by Encode. A *Dump is parsed in
// place, from the bytes it already holds; any other reader is read to its
// end first.
func Decode(r io.Reader) (*Sample, error) {
	d, ok := r.(*Dump)
	if !ok {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		d = NewDump(data, "", 0)
	}
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(d, magic[:]); err != nil {
		return nil, fmt.Errorf("profile: reading magic: %w", err)
	}
	if string(magic[:]) != Magic {
		return nil, fmt.Errorf("profile: bad magic %q", magic[:])
	}
	getUvarint := func() (uint64, error) { return binary.ReadUvarint(d) }
	getVarint := func() (int64, error) { return binary.ReadVarint(d) }
	getString := func() (string, error) {
		n, err := getUvarint()
		if err != nil {
			return "", err
		}
		if n > maxCount {
			return "", fmt.Errorf("profile: string length %d too large", n)
		}
		b := d.Bytes()
		if n > uint64(len(b)) {
			// A string past maxPrealloc was copied out a chunk at a
			// time, which reports a short read as io.EOF.
			if n > maxPrealloc || len(b) == 0 {
				return "", io.EOF
			}
			return "", io.ErrUnexpectedEOF
		}
		d.Seek(int64(n), io.SeekCurrent)
		return string(b[:n]), nil
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
