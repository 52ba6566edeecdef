// Package pprof is the Go pprof frontend: it decodes gzip-compressed
// profile.proto payloads — the format `go tool pprof`, net/http/pprof, and
// runtime/pprof produce — into the format-neutral profile.Sample the
// analysis core consumes, and encodes Samples back for fixtures and the
// cross-format gates.
//
// The ingestion contract mirrors gmon.out: each dump is CUMULATIVE since
// program start (a CPU profile whose collection started at run begin,
// snapshotted once per interval), and the differencer turns consecutive
// dumps into per-interval profiles by subtraction. Self time is attributed
// to the leaf frame of each stack, exactly as pprof's own "flat" view does,
// so a multi-stack profile folds to per-function totals.
//
// Column mapping: the sample_type table is scanned by name — "samples"
// (unit "count") feeds FuncRecord.Samples, "cpu" (unit "nanoseconds") feeds
// SelfTime, and an optional third "calls" column (an IncProf extension the
// encoder writes) feeds Calls. Real two-column Go CPU profiles therefore
// ingest with Calls left zero — the honest degradation for a format that
// does not count invocations. Call-graph arcs are likewise not represented:
// stack edges weight sample counts, not invocation counts, and fabricating
// arc counts from them would corrupt the call-graph reports.
//
// The sequence number travels in the profile's comment table ("seq=N");
// profiles without it (any real pprof capture) decode to Seq =
// profile.SeqUnassigned and the directory readers number them from the
// pprof.out.N file name.
package pprof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/incprof/incprof/internal/profile"
)

// Profile message field numbers (profile.proto).
const (
	fSampleType = 1
	fSample     = 2
	fLocation   = 4
	fFunction   = 5
	fStringTab  = 6
	fTimeNanos  = 9
	fDurNanos   = 10
	fPeriodType = 11
	fPeriod     = 12
	fComment    = 13
)

// ValueType fields.
const (
	vtType = 1
	vtUnit = 2
)

// Sample fields.
const (
	sLocationID = 1
	sValue      = 2
)

// Location fields.
const (
	locID   = 1
	locLine = 4
)

// Line fields.
const lineFunctionID = 1

// Function fields.
const (
	fnID   = 1
	fnName = 2
)

// DefaultSamplePeriod is assumed when a profile carries no period: the Go
// runtime's 100 Hz CPU profiling default.
const DefaultSamplePeriod = 10 * time.Millisecond

// gzipMagic is the two-byte gzip stream header every `go tool pprof` output
// starts with.
var gzipMagic = []byte{0x1f, 0x8b}

func init() {
	profile.Register(&profile.Format{
		Name:       "pprof",
		FilePrefix: "pprof.out.",
		Detect:     func(data []byte) bool { return bytes.HasPrefix(data, gzipMagic) },
		Decode:     Decode,
		Encode:     Encode,
	})
}

type valueType struct{ typ, unit uint64 }

// sampleRef is one Sample message in the flat form Decode keeps: its leaf
// location, if it has any, and the span of its values in decodeState.values.
type sampleRef struct {
	loc    uint64
	hasLoc bool
	v0, v1 int
}

// funcAcc sums the leaf samples of one function name, keyed by the name's
// string-table index.
type funcAcc struct {
	name                uint64
	samples, cpu, calls int64
}

// decodeState is the scratch one Decode call works in. It is pooled, so a
// steady stream of dumps reuses its buffers, gzip reader, maps and flat
// arrays; what a call returns never points into it.
type decodeState struct {
	lim      io.LimitedReader
	src      bytes.Reader
	gz       gzip.Reader
	in, raw  bytes.Buffer // payload as read, and decompressed
	strtab   [][]byte     // sub-slices of the proto payload
	types    []valueType
	samples  []sampleRef
	values   []uint64 // every sample's values, back to back
	locs     []uint64 // the sample being parsed's location ids
	comments []uint64
	slot     []int32 // string index -> 1 + index in accs, 0 if none
	accs     []funcAcc
	locFunc  map[uint64]uint64 // location id -> leaf function id
	funcName map[uint64]uint64 // function id -> name index
}

var statePool = sync.Pool{New: func() any {
	return &decodeState{locFunc: map[uint64]uint64{}, funcName: map[uint64]uint64{}}
}}

// maxPooledBuffer bounds the buffers a decodeState may carry back into the
// pool, so one huge profile does not pin its memory after the call.
const maxPooledBuffer = 16 << 20

// Decode reads one pprof profile (gzip-compressed or raw proto) into a
// cumulative Sample.
func Decode(r io.Reader) (*profile.Sample, error) {
	st := statePool.Get().(*decodeState)
	s, err := st.decode(r)
	st.lim = io.LimitedReader{} // let go of the caller's reader
	if st.in.Cap() <= maxPooledBuffer && st.raw.Cap() <= maxPooledBuffer {
		statePool.Put(st)
	}
	return s, err
}

func (st *decodeState) decode(r io.Reader) (*profile.Sample, error) {
	st.in.Reset()
	st.lim = io.LimitedReader{R: r, N: 1 << 28}
	if _, err := st.in.ReadFrom(&st.lim); err != nil {
		return nil, fmt.Errorf("pprof: reading payload: %w", err)
	}
	data := st.in.Bytes()
	if bytes.HasPrefix(data, gzipMagic) {
		st.src.Reset(data)
		if err := st.gz.Reset(&st.src); err != nil {
			return nil, fmt.Errorf("pprof: opening gzip stream: %w", err)
		}
		st.raw.Reset()
		st.lim = io.LimitedReader{R: &st.gz, N: 1 << 28}
		_, err := st.raw.ReadFrom(&st.lim)
		if cerr := st.gz.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("pprof: decompressing: %w", err)
		}
		data = st.raw.Bytes()
	}

	st.strtab, st.types, st.samples, st.values, st.comments = st.strtab[:0], st.types[:0], st.samples[:0], st.values[:0], st.comments[:0]
	clear(st.locFunc)
	clear(st.funcName)
	var (
		timeNanos  int64
		period     int64
		periodType valueType
		err        error
	)
	r0 := &wireReader{data: data}
	for !r0.done() {
		num, wt, err := r0.tag()
		if err != nil {
			return nil, err
		}
		switch num {
		case fStringTab:
			if wt != wtLen {
				return nil, fmt.Errorf("pprof: string_table with wire type %d", wt)
			}
			b, err := r0.bytes()
			if err != nil {
				return nil, err
			}
			st.strtab = append(st.strtab, b)
		case fSampleType, fPeriodType:
			b, err := r0.bytes()
			if err != nil {
				return nil, err
			}
			vt, err := parseValueType(b)
			if err != nil {
				return nil, err
			}
			if num == fSampleType {
				st.types = append(st.types, vt)
			} else {
				periodType = vt
			}
		case fSample:
			b, err := r0.bytes()
			if err != nil {
				return nil, err
			}
			if err := st.parseSample(b); err != nil {
				return nil, err
			}
		case fLocation:
			b, err := r0.bytes()
			if err != nil {
				return nil, err
			}
			id, fn, err := parseLocation(b)
			if err != nil {
				return nil, err
			}
			st.locFunc[id] = fn
		case fFunction:
			b, err := r0.bytes()
			if err != nil {
				return nil, err
			}
			id, name, err := parseFunction(b)
			if err != nil {
				return nil, err
			}
			st.funcName[id] = name
		case fTimeNanos:
			v, err := r0.varint()
			if err != nil {
				return nil, err
			}
			timeNanos = int64(v)
		case fPeriod:
			v, err := r0.varint()
			if err != nil {
				return nil, err
			}
			period = int64(v)
		case fComment:
			if st.comments, err = r0.uints(wt, st.comments); err != nil {
				return nil, err
			}
		default:
			if err := r0.skip(wt); err != nil {
				return nil, err
			}
		}
	}

	// Resolve the value columns by sample_type name.
	colSamples, colCPU, colCalls := -1, -1, -1
	for i, vt := range st.types {
		name, err := st.str(vt.typ)
		if err != nil {
			return nil, err
		}
		switch string(name) {
		case "samples":
			colSamples = i
		case "cpu":
			colCPU = i
		case "calls":
			colCalls = i
		}
	}
	if colSamples < 0 && colCPU < 0 && len(st.samples) > 0 {
		return nil, fmt.Errorf("pprof: no samples/count or cpu/nanoseconds sample type (have %d types)", len(st.types))
	}

	out := &profile.Sample{Seq: profile.SeqUnassigned}
	if timeNanos < 0 {
		return nil, fmt.Errorf("pprof: negative time_nanos %d", timeNanos)
	}
	out.Timestamp = time.Duration(timeNanos)
	switch {
	case period > 0:
		var unit []byte
		if periodType != (valueType{}) {
			if unit, err = st.str(periodType.unit); err != nil {
				return nil, err
			}
		}
		switch string(unit) {
		case "", "nanoseconds":
			out.SamplePeriod = time.Duration(period)
		case "microseconds":
			out.SamplePeriod = time.Duration(period) * time.Microsecond
		case "milliseconds":
			out.SamplePeriod = time.Duration(period) * time.Millisecond
		case "seconds":
			out.SamplePeriod = time.Duration(period) * time.Second
		default:
			return nil, fmt.Errorf("pprof: unsupported period unit %q", unit)
		}
	case period < 0:
		return nil, fmt.Errorf("pprof: negative period %d", period)
	default:
		out.SamplePeriod = DefaultSamplePeriod
	}

	if err := st.fold(colSamples, colCPU, colCalls); err != nil {
		return nil, err
	}
	st.merge()
	if len(st.accs) > 0 {
		out.Funcs = make([]profile.FuncRecord, 0, len(st.accs))
	}
	for i := range st.accs {
		a := &st.accs[i]
		if colSamples < 0 && a.cpu > 0 && out.SamplePeriod > 0 {
			// Profiles lacking a samples/count column carry only cpu time;
			// recover the histogram count from the period. Never applied
			// when a samples column exists — a zero there means zero.
			a.samples = (a.cpu + int64(out.SamplePeriod)/2) / int64(out.SamplePeriod)
		}
		if a.samples == 0 && a.cpu == 0 && a.calls == 0 {
			continue
		}
		out.Funcs = append(out.Funcs, profile.FuncRecord{
			Name:     string(st.strtab[a.name]),
			Samples:  a.samples,
			SelfTime: time.Duration(a.cpu),
			Calls:    a.calls,
		})
	}
	if len(out.Funcs) == 0 {
		out.Funcs = nil
	}

	// The sequence number, if the producer recorded one, rides the comment
	// table as "seq=N".
	for _, idx := range st.comments {
		c, err := st.str(idx)
		if err != nil {
			return nil, err
		}
		if v, ok := bytes.CutPrefix(c, []byte("seq=")); ok {
			n, err := strconv.Atoi(string(v))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("pprof: bad seq comment %q", c)
			}
			out.Seq = n
		}
	}
	return out, nil
}

// str returns string-table entry idx.
func (st *decodeState) str(idx uint64) ([]byte, error) {
	if idx >= uint64(len(st.strtab)) {
		return nil, fmt.Errorf("pprof: string index %d out of table (len %d)", idx, len(st.strtab))
	}
	return st.strtab[idx], nil
}

// parseSample appends one Sample message to the flat sample arrays: only
// its first location id is kept, as the flat view needs no more.
func (st *decodeState) parseSample(b []byte) error {
	r := &wireReader{data: b}
	st.locs = st.locs[:0]
	s := sampleRef{v0: len(st.values)}
	for !r.done() {
		num, wt, err := r.tag()
		if err != nil {
			return err
		}
		switch num {
		case sLocationID:
			if st.locs, err = r.uints(wt, st.locs); err != nil {
				return err
			}
		case sValue:
			if st.values, err = r.uints(wt, st.values); err != nil {
				return err
			}
		default:
			if err := r.skip(wt); err != nil {
				return err
			}
		}
	}
	if len(st.locs) > 0 {
		s.loc, s.hasLoc = st.locs[0], true
	}
	s.v1 = len(st.values)
	st.samples = append(st.samples, s)
	return nil
}

// fold sums every sample into its leaf function's accumulator, keyed by
// the function's name index — pprof's flat view.
func (st *decodeState) fold(colSamples, colCPU, colCalls int) error {
	st.slot = slices.Grow(st.slot[:0], len(st.strtab))[:len(st.strtab)]
	clear(st.slot)
	st.accs = st.accs[:0]
	for _, s := range st.samples {
		if !s.hasLoc {
			continue
		}
		fnID, ok := st.locFunc[s.loc]
		if !ok {
			return fmt.Errorf("pprof: sample references unknown location %d", s.loc)
		}
		nameIdx, ok := st.funcName[fnID]
		if !ok {
			return fmt.Errorf("pprof: location %d references unknown function %d", s.loc, fnID)
		}
		name, err := st.str(nameIdx)
		if err != nil {
			return err
		}
		if len(name) == 0 {
			return fmt.Errorf("pprof: function %d has an empty name", fnID)
		}
		if st.slot[nameIdx] == 0 {
			st.accs = append(st.accs, funcAcc{name: nameIdx})
			st.slot[nameIdx] = int32(len(st.accs))
		}
		a := &st.accs[st.slot[nameIdx]-1]
		values := st.values[s.v0:s.v1]
		var v int64
		if v, err = take(values, colSamples, name); err != nil {
			return err
		}
		a.samples += v
		if v, err = take(values, colCPU, name); err != nil {
			return err
		}
		a.cpu += v
		if v, err = take(values, colCalls, name); err != nil {
			return err
		}
		a.calls += v
	}
	return nil
}

// take returns a sample's value in column col, zero if the column is absent
// or beyond the values the sample carries.
func take(values []uint64, col int, name []byte) (int64, error) {
	if col < 0 || col >= len(values) {
		return 0, nil
	}
	v := int64(values[col])
	if v < 0 {
		return 0, fmt.Errorf("pprof: negative sample value %d for %q", v, name)
	}
	return v, nil
}

// merge sorts the accumulators by name and folds together those whose
// distinct string-table entries spell the same name, leaving one
// accumulator per name in the order Normalize would give the records.
func (st *decodeState) merge() {
	slices.SortFunc(st.accs, func(a, b funcAcc) int { return bytes.Compare(st.strtab[a.name], st.strtab[b.name]) })
	n := 0
	for i, a := range st.accs {
		if i > 0 && bytes.Equal(st.strtab[a.name], st.strtab[st.accs[n-1].name]) {
			m := &st.accs[n-1]
			m.samples += a.samples
			m.cpu += a.cpu
			m.calls += a.calls
			continue
		}
		st.accs[n] = a
		n++
	}
	st.accs = st.accs[:n]
}

func parseValueType(b []byte) (valueType, error) {
	var vt valueType
	r := &wireReader{data: b}
	for !r.done() {
		num, wt, err := r.tag()
		if err != nil {
			return vt, err
		}
		switch num {
		case vtType:
			if vt.typ, err = r.varint(); err != nil {
				return vt, err
			}
		case vtUnit:
			if vt.unit, err = r.varint(); err != nil {
				return vt, err
			}
		default:
			if err := r.skip(wt); err != nil {
				return vt, err
			}
		}
	}
	return vt, nil
}

func parseLocation(b []byte) (id, fn uint64, err error) {
	r := &wireReader{data: b}
	for !r.done() {
		num, wt, err := r.tag()
		if err != nil {
			return 0, 0, err
		}
		switch num {
		case locID:
			if id, err = r.varint(); err != nil {
				return 0, 0, err
			}
		case locLine:
			lb, err := r.bytes()
			if err != nil {
				return 0, 0, err
			}
			// The first Line of a location is the leaf (innermost) frame.
			if fn == 0 {
				lr := &wireReader{data: lb}
				for !lr.done() {
					lnum, lwt, err := lr.tag()
					if err != nil {
						return 0, 0, err
					}
					if lnum == lineFunctionID {
						if fn, err = lr.varint(); err != nil {
							return 0, 0, err
						}
					} else if err := lr.skip(lwt); err != nil {
						return 0, 0, err
					}
				}
			}
		default:
			if err := r.skip(wt); err != nil {
				return 0, 0, err
			}
		}
	}
	return id, fn, nil
}

func parseFunction(b []byte) (id, name uint64, err error) {
	r := &wireReader{data: b}
	for !r.done() {
		num, wt, err := r.tag()
		if err != nil {
			return 0, 0, err
		}
		switch num {
		case fnID:
			if id, err = r.varint(); err != nil {
				return 0, 0, err
			}
		case fnName:
			if name, err = r.varint(); err != nil {
				return 0, 0, err
			}
		default:
			if err := r.skip(wt); err != nil {
				return 0, 0, err
			}
		}
	}
	return id, name, nil
}

// Encode writes the sample as a gzip-compressed pprof profile with the
// three-column sample_type table [samples/count, cpu/nanoseconds,
// calls/count], one single-frame stack per function, the period as
// cpu/nanoseconds, the timestamp as time_nanos, and the sequence number as
// a "seq=N" comment. Call-graph arcs are not representable and are dropped
// — decoding the result yields the sample minus its arcs. Output is
// deterministic for a normalized sample.
func Encode(w io.Writer, s *profile.Sample) error {
	// String table: "" first as the spec requires, then fixed labels, then
	// function names in their (sorted) record order.
	strtab := []string{"", "samples", "count", "cpu", "nanoseconds", "calls"}
	idx := map[string]uint64{}
	for i, str := range strtab {
		idx[str] = uint64(i)
	}
	intern := func(str string) uint64 {
		if i, ok := idx[str]; ok {
			return i
		}
		idx[str] = uint64(len(strtab))
		strtab = append(strtab, str)
		return idx[str]
	}
	funcs := append([]profile.FuncRecord(nil), s.Funcs...)
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Name < funcs[j].Name })

	var top wireWriter
	vt := func(typ, unit string) []byte {
		var w wireWriter
		w.varintField(vtType, intern(typ))
		w.varintField(vtUnit, intern(unit))
		return w.buf
	}
	top.bytesField(fSampleType, vt("samples", "count"))
	top.bytesField(fSampleType, vt("cpu", "nanoseconds"))
	top.bytesField(fSampleType, vt("calls", "count"))

	for i, f := range funcs {
		id := uint64(i + 1)
		var sm wireWriter
		sm.packedField(sLocationID, []uint64{id})
		sm.packedField(sValue, []uint64{uint64(f.Samples), uint64(f.SelfTime), uint64(f.Calls)})
		top.bytesField(fSample, sm.buf)
	}
	for i, f := range funcs {
		id := uint64(i + 1)
		var line wireWriter
		line.varintField(lineFunctionID, id)
		var loc wireWriter
		loc.varintField(locID, id)
		loc.bytesField(locLine, line.buf)
		top.bytesField(fLocation, loc.buf)
		var fn wireWriter
		fn.varintField(fnID, id)
		fn.varintField(fnName, intern(f.Name))
		top.bytesField(fFunction, fn.buf)
	}
	seqIdx := uint64(0)
	if s.Seq != profile.SeqUnassigned {
		seqIdx = intern("seq=" + strconv.Itoa(s.Seq))
	}
	for _, str := range strtab {
		top.bytesField(fStringTab, []byte(str))
	}
	top.varintField(fTimeNanos, uint64(s.Timestamp))
	top.bytesField(fPeriodType, vtStatic("cpu", "nanoseconds", idx))
	top.varintField(fPeriod, uint64(s.SamplePeriod))
	if seqIdx != 0 {
		top.packedField(fComment, []uint64{seqIdx})
	}

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(top.buf); err != nil {
		gz.Close()
		return err
	}
	return gz.Close()
}

// vtStatic builds a ValueType from already-interned strings (the encode
// path writes the string table before the trailer fields, so late interning
// would corrupt it).
func vtStatic(typ, unit string, idx map[string]uint64) []byte {
	var w wireWriter
	w.varintField(vtType, idx[typ])
	w.varintField(vtUnit, idx[unit])
	return w.buf
}
