package gmon

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/incprof/incprof/internal/profile"
)

// This file implements the actual GNU gmon.out wire format (the file the
// glibc gprof runtime writes and the paper's IncProf renames once per
// interval): a "gmon" magic header followed by tagged records — one
// histogram record holding the PC-sampling buckets and one arc record per
// caller→callee pair. See gmon_out.h in GNU binutils.
//
// Real profiles are keyed by program counter, not function name, so a
// SymbolLayout assigns each function a synthetic address range (as a linker
// would) and plays the role of the symbol table gprof reads from the
// binary. WriteGmonOut places each function's histogram samples at its
// range and its calls at its entry address; ReadGmonOut maps addresses back
// through the layout. Round-tripping through this format is exactly the
// information loss a real gprof pipeline has.
//
// On disk the layout travels as a sidecar, symbols.out.N beside each
// gmon.out.N (WriteSymbols): a "# t=<seconds> seq=<N>" header carrying the
// dump's timestamp, which the real pipeline recovers from file metadata,
// then one function name per line. The registered "gmon" format decodes a
// GNU dump against its sidecar, read as a companion file (profile.Dump).

// gmonMagic and gmonVersion follow GNU gmon_out.h ("gmon" + version 1).
var gmonMagic = [4]byte{'g', 'm', 'o', 'n'}

const gmonVersion = 1

// Record tags from gmon_out.h.
const (
	tagHist    = 0
	tagArc     = 1
	tagBBCount = 2
)

// SymbolLayout assigns synthetic PC ranges to function names.
type SymbolLayout struct {
	names []string // sorted; index i owns [base+i*span, base+(i+1)*span)
	index map[string]int
	base  uint64
	span  uint64
}

// NewSymbolLayout lays the given functions out in sorted order from a
// conventional text-segment base, one span-sized region each.
func NewSymbolLayout(names []string) *SymbolLayout {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	l := &SymbolLayout{
		names: sorted,
		index: make(map[string]int, len(sorted)),
		base:  0x400000, // traditional ELF text base
		span:  0x1000,   // one page per function
	}
	for i, n := range sorted {
		l.index[n] = i
	}
	return l
}

// LayoutForSample builds a layout covering every function and arc
// endpoint in the sample.
func LayoutForSample(s *profile.Sample) *SymbolLayout {
	seen := make(map[string]bool)
	for _, f := range s.Funcs {
		seen[f.Name] = true
	}
	for _, a := range s.Arcs {
		seen[a.Caller] = true
		seen[a.Callee] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	return NewSymbolLayout(names)
}

// Addr returns the entry address of a function and whether it is known.
func (l *SymbolLayout) Addr(name string) (uint64, bool) {
	i, ok := l.index[name]
	if !ok {
		return 0, false
	}
	return l.base + uint64(i)*l.span, true
}

// Resolve maps an address back to the owning function, as gprof's symbol
// lookup does.
func (l *SymbolLayout) Resolve(addr uint64) (string, bool) {
	if addr < l.base {
		return "", false
	}
	i := int((addr - l.base) / l.span)
	if i < 0 || i >= len(l.names) {
		return "", false
	}
	return l.names[i], true
}

// LowPC and HighPC bound the layout's text range.
func (l *SymbolLayout) LowPC() uint64  { return l.base }
func (l *SymbolLayout) HighPC() uint64 { return l.base + uint64(len(l.names))*l.span }

// Names returns the laid-out function names in address order.
func (l *SymbolLayout) Names() []string { return append([]string(nil), l.names...) }

// WriteGmonOut encodes the snapshot in GNU gmon.out format against the
// layout. Histogram buckets are one per function region (gprof's bucket
// granularity is configurable; one-per-function loses nothing our model
// has). Exact self time and per-function call totals beyond arcs are not
// representable — precisely gprof's own limitation.
func WriteGmonOut(w io.Writer, s *profile.Sample, l *SymbolLayout) error {
	bw := bufio.NewWriter(w)
	// Header: magic, version, 3 spare words.
	if _, err := bw.Write(gmonMagic[:]); err != nil {
		return err
	}
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], gmonVersion)
	if _, err := bw.Write(word[:]); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if _, err := bw.Write([]byte{0, 0, 0, 0}); err != nil {
			return err
		}
	}

	// Histogram record: tag, lowpc, highpc, bucket count, rate, dims.
	nbuckets := len(l.names)
	if err := bw.WriteByte(tagHist); err != nil {
		return err
	}
	var addr [8]byte
	binary.LittleEndian.PutUint64(addr[:], l.LowPC())
	bw.Write(addr[:])
	binary.LittleEndian.PutUint64(addr[:], l.HighPC())
	bw.Write(addr[:])
	binary.LittleEndian.PutUint32(word[:], uint32(nbuckets))
	bw.Write(word[:])
	rate := uint32(0)
	if s.SamplePeriod > 0 {
		rate = uint32(time.Second / s.SamplePeriod)
	}
	binary.LittleEndian.PutUint32(word[:], rate)
	bw.Write(word[:])
	// Dimension label (15 bytes + abbrev char), as gmon_out.h specifies.
	var dim [15]byte
	copy(dim[:], "seconds")
	bw.Write(dim[:])
	bw.WriteByte('s')
	// Buckets: uint16 sample counts (gprof saturates at 65535).
	for _, name := range l.names {
		var samples int64
		if rec, ok := s.Func(name); ok {
			samples = rec.Samples
		}
		if samples > 65535 {
			samples = 65535
		}
		var b [2]byte
		binary.LittleEndian.PutUint16(b[:], uint16(samples))
		bw.Write(b[:])
	}

	// Arc records: tag, frompc, selfpc, count.
	for _, a := range s.Arcs {
		from, ok1 := l.Addr(a.Caller)
		self, ok2 := l.Addr(a.Callee)
		if !ok1 || !ok2 {
			return fmt.Errorf("gmon: arc %s->%s not in layout", a.Caller, a.Callee)
		}
		if err := bw.WriteByte(tagArc); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(addr[:], from)
		bw.Write(addr[:])
		binary.LittleEndian.PutUint64(addr[:], self)
		bw.Write(addr[:])
		count := a.Count
		if count > 0xffffffff {
			count = 0xffffffff
		}
		binary.LittleEndian.PutUint32(word[:], uint32(count))
		bw.Write(word[:])
	}
	return bw.Flush()
}

// ReadGmonOut decodes a GNU gmon.out stream against the layout, recovering
// a snapshot with sampled histogram counts and arcs (and per-function call
// counts summed from incoming arcs, as gprof derives them).
func ReadGmonOut(r io.Reader, l *SymbolLayout) (*profile.Sample, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("gmon: reading gmon.out magic: %w", err)
	}
	if magic != gmonMagic {
		return nil, fmt.Errorf("gmon: bad gmon.out magic %q", magic[:])
	}
	var word [4]byte
	if _, err := io.ReadFull(br, word[:]); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(word[:]); v != gmonVersion {
		return nil, fmt.Errorf("gmon: unsupported gmon.out version %d", v)
	}
	for i := 0; i < 3; i++ {
		if _, err := io.ReadFull(br, word[:]); err != nil {
			return nil, err
		}
	}

	s := &profile.Sample{}
	samples := make(map[string]int64)
	calls := make(map[string]int64)
	for {
		tag, err := br.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagHist:
			var addr [8]byte
			if _, err := io.ReadFull(br, addr[:]); err != nil {
				return nil, err
			}
			lowpc := binary.LittleEndian.Uint64(addr[:])
			if _, err := io.ReadFull(br, addr[:]); err != nil {
				return nil, err
			}
			if _, err := io.ReadFull(br, word[:]); err != nil {
				return nil, err
			}
			nbuckets := binary.LittleEndian.Uint32(word[:])
			if nbuckets > 1<<22 {
				return nil, fmt.Errorf("gmon: absurd bucket count %d", nbuckets)
			}
			if _, err := io.ReadFull(br, word[:]); err != nil {
				return nil, err
			}
			rate := binary.LittleEndian.Uint32(word[:])
			if rate > 0 {
				s.SamplePeriod = time.Second / time.Duration(rate)
			}
			var dim [16]byte
			if _, err := io.ReadFull(br, dim[:]); err != nil {
				return nil, err
			}
			bucketSpan := l.span // one bucket per function region
			for i := uint32(0); i < nbuckets; i++ {
				var b [2]byte
				if _, err := io.ReadFull(br, b[:]); err != nil {
					return nil, err
				}
				n := int64(binary.LittleEndian.Uint16(b[:]))
				if n == 0 {
					continue
				}
				name, ok := l.Resolve(lowpc + uint64(i)*bucketSpan)
				if !ok {
					return nil, fmt.Errorf("gmon: bucket %d outside layout", i)
				}
				samples[name] += n
			}
		case tagArc:
			var addr [8]byte
			if _, err := io.ReadFull(br, addr[:]); err != nil {
				return nil, err
			}
			from := binary.LittleEndian.Uint64(addr[:])
			if _, err := io.ReadFull(br, addr[:]); err != nil {
				return nil, err
			}
			self := binary.LittleEndian.Uint64(addr[:])
			if _, err := io.ReadFull(br, word[:]); err != nil {
				return nil, err
			}
			count := int64(binary.LittleEndian.Uint32(word[:]))
			caller, ok1 := l.Resolve(from)
			callee, ok2 := l.Resolve(self)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("gmon: arc endpoints outside layout")
			}
			s.Arcs = append(s.Arcs, profile.Arc{Caller: caller, Callee: callee, Count: count})
			calls[callee] += count
		case tagBBCount:
			return nil, fmt.Errorf("gmon: basic-block records not supported")
		default:
			return nil, fmt.Errorf("gmon: unknown record tag %d", tag)
		}
	}
	names := make(map[string]bool)
	for n := range samples {
		names[n] = true
	}
	for n := range calls {
		names[n] = true
	}
	for n := range names {
		s.Funcs = append(s.Funcs, profile.FuncRecord{Name: n, Samples: samples[n], Calls: calls[n]})
	}
	s.Normalize()
	return s, nil
}

// SymbolsPrefix names the sidecar written beside each GNU gmon.out.N.
const SymbolsPrefix = "symbols.out."

// WriteSymbols writes the sidecar of dump s laid out by l.
func WriteSymbols(w io.Writer, s *profile.Sample, l *SymbolLayout) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# t=%.6f seq=%d\n", s.Timestamp.Seconds(), s.Seq)
	for _, name := range l.names {
		fmt.Fprintln(bw, name)
	}
	return bw.Flush()
}

// parseSymbols reads a sidecar back: the function names and the dump's
// timestamp.
func parseSymbols(data []byte) ([]string, time.Duration, error) {
	header, body, _ := strings.Cut(string(data), "\n")
	fields, ok := strings.CutPrefix(header, "# ")
	if !ok {
		return nil, 0, errors.New("gmon: symbol sidecar has no header")
	}
	var ts time.Duration
	for _, f := range strings.Fields(fields) {
		if v, ok := strings.CutPrefix(f, "t="); ok {
			sec, err := strconv.ParseFloat(v, 64)
			d, ok := profile.FromSeconds(sec)
			if err != nil || !ok {
				return nil, 0, fmt.Errorf("gmon: bad sidecar timestamp %q", v)
			}
			ts = d
		}
	}
	var names []string
	for _, name := range strings.Split(body, "\n") {
		if name != "" {
			names = append(names, name)
		}
	}
	return names, ts, nil
}

// decode is the "gmon" format's Decode. A canonical dump goes to
// profile.Decode. A GNU gmon.out dump is keyed by address, so it decodes
// against the layout and timestamp in its sidecar, which r must offer as a
// companion file (a *profile.Dump does); its Seq is left to the file name.
func decode(r io.Reader) (*profile.Sample, error) {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(len(gmonMagic)); !bytes.Equal(head, gmonMagic[:]) {
		return profile.Decode(br)
	}
	dump, ok := r.(*profile.Dump)
	if !ok {
		return nil, errors.New("gmon: a GNU gmon.out dump needs its " + SymbolsPrefix + "N sidecar")
	}
	side, err := dump.Companion(SymbolsPrefix)
	if err != nil {
		return nil, fmt.Errorf("gmon: reading the symbol sidecar: %w", err)
	}
	names, ts, err := parseSymbols(side)
	if err != nil {
		return nil, err
	}
	s, err := ReadGmonOut(br, NewSymbolLayout(names))
	if err != nil {
		return nil, err
	}
	s.Seq, s.Timestamp = profile.SeqUnassigned, ts
	return s, nil
}
