// reference_test.go keeps the straightforward decoder Decode replaced as a
// test oracle: it reads every string-table entry into a string, every sample
// into its own slices, and folds stacks through a map keyed by name. Decode
// must agree with it on every input, errors included.
package pprof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/profile"
)

// referenceSample is one decoded Sample message: its location ids and values.
type referenceSample struct {
	locs   []uint64
	values []int64
}

// referenceDecode reads one pprof profile (gzip-compressed or raw proto)
// into a cumulative Sample.
func referenceDecode(r io.Reader) (*profile.Sample, error) {
	data, err := io.ReadAll(io.LimitReader(r, 1<<28))
	if err != nil {
		return nil, fmt.Errorf("pprof: reading payload: %w", err)
	}
	if bytes.HasPrefix(data, gzipMagic) {
		gz, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: opening gzip stream: %w", err)
		}
		data, err = io.ReadAll(io.LimitReader(gz, 1<<28))
		if cerr := gz.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("pprof: decompressing: %w", err)
		}
	}

	var (
		strtab      []string
		sampleTypes []valueType
		samples     []referenceSample
		locFunc     = map[uint64]uint64{} // location id -> leaf function id
		funcName    = map[uint64]uint64{} // function id -> name index
		timeNanos   int64
		period      int64
		periodType  valueType
		comments    []uint64
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
			strtab = append(strtab, string(b))
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
				sampleTypes = append(sampleTypes, vt)
			} else {
				periodType = vt
			}
		case fSample:
			b, err := r0.bytes()
			if err != nil {
				return nil, err
			}
			s, err := referenceParseSample(b)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case fLocation:
			b, err := r0.bytes()
			if err != nil {
				return nil, err
			}
			id, fn, err := parseLocation(b)
			if err != nil {
				return nil, err
			}
			locFunc[id] = fn
		case fFunction:
			b, err := r0.bytes()
			if err != nil {
				return nil, err
			}
			id, name, err := parseFunction(b)
			if err != nil {
				return nil, err
			}
			funcName[id] = name
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
			if comments, err = r0.uints(wt, comments); err != nil {
				return nil, err
			}
		default:
			if err := r0.skip(wt); err != nil {
				return nil, err
			}
		}
	}

	str := func(idx uint64) (string, error) {
		if idx >= uint64(len(strtab)) {
			return "", fmt.Errorf("pprof: string index %d out of table (len %d)", idx, len(strtab))
		}
		return strtab[idx], nil
	}

	// Resolve the value columns by sample_type name.
	colSamples, colCPU, colCalls := -1, -1, -1
	for i, vt := range sampleTypes {
		name, err := str(vt.typ)
		if err != nil {
			return nil, err
		}
		switch name {
		case "samples":
			colSamples = i
		case "cpu":
			colCPU = i
		case "calls":
			colCalls = i
		}
	}
	if colSamples < 0 && colCPU < 0 && len(samples) > 0 {
		return nil, fmt.Errorf("pprof: no samples/count or cpu/nanoseconds sample type (have %d types)", len(sampleTypes))
	}

	out := &profile.Sample{Seq: profile.SeqUnassigned}
	if timeNanos < 0 {
		return nil, fmt.Errorf("pprof: negative time_nanos %d", timeNanos)
	}
	out.Timestamp = time.Duration(timeNanos)
	switch {
	case period > 0:
		unit := ""
		if periodType != (valueType{}) {
			if unit, err = str(periodType.unit); err != nil {
				return nil, err
			}
		}
		switch unit {
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

	// Fold stacks to leaf functions, pprof's flat view.
	type acc struct{ samples, cpu, calls int64 }
	byName := map[string]*acc{}
	for _, s := range samples {
		if len(s.locs) == 0 {
			continue
		}
		fnID, ok := locFunc[s.locs[0]]
		if !ok {
			return nil, fmt.Errorf("pprof: sample references unknown location %d", s.locs[0])
		}
		nameIdx, ok := funcName[fnID]
		if !ok {
			return nil, fmt.Errorf("pprof: location %d references unknown function %d", s.locs[0], fnID)
		}
		name, err := str(nameIdx)
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, fmt.Errorf("pprof: function %d has an empty name", fnID)
		}
		a := byName[name]
		if a == nil {
			a = &acc{}
			byName[name] = a
		}
		take := func(col int) (int64, error) {
			if col < 0 || col >= len(s.values) {
				return 0, nil
			}
			if s.values[col] < 0 {
				return 0, fmt.Errorf("pprof: negative sample value %d for %q", s.values[col], name)
			}
			return s.values[col], nil
		}
		var v int64
		if v, err = take(colSamples); err != nil {
			return nil, err
		}
		a.samples += v
		if v, err = take(colCPU); err != nil {
			return nil, err
		}
		a.cpu += v
		if v, err = take(colCalls); err != nil {
			return nil, err
		}
		a.calls += v
	}
	for name, a := range byName {
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
			Name:     name,
			Samples:  a.samples,
			SelfTime: time.Duration(a.cpu),
			Calls:    a.calls,
		})
	}

	// The sequence number, if the producer recorded one, rides the comment
	// table as "seq=N".
	for _, idx := range comments {
		c, err := str(idx)
		if err != nil {
			return nil, err
		}
		if v, ok := strings.CutPrefix(c, "seq="); ok {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("pprof: bad seq comment %q", c)
			}
			out.Seq = n
		}
	}

	out.Normalize()
	return out, nil
}

func referenceParseSample(b []byte) (referenceSample, error) {
	var s referenceSample
	r := &wireReader{data: b}
	var vals []uint64
	for !r.done() {
		num, wt, err := r.tag()
		if err != nil {
			return s, err
		}
		switch num {
		case sLocationID:
			if s.locs, err = r.uints(wt, s.locs); err != nil {
				return s, err
			}
		case sValue:
			if vals, err = r.uints(wt, vals[:0]); err != nil {
				return s, err
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
		default:
			if err := r.skip(wt); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

// TestDecodeMatchesReference holds Decode to the reference decoder over the
// committed FuzzDecode corpus, generated symbol-rich dumps and a profile
// whose string table spells one name twice, and over truncations of each:
// the samples must be deeply equal and the error texts the same.
func TestDecodeMatchesReference(t *testing.T) {
	inputs := committedCorpus(t)
	rich := encoded(t, symbolRich(1100))
	unseq := symbolRich(1100)
	unseq.Seq = profile.SeqUnassigned
	inputs = append(inputs, rich, gunzip(t, rich), encoded(t, unseq), duplicateNames())
	inputs = append(inputs, twoFaults()...)
	if s, err := Decode(bytes.NewReader(duplicateNames())); err != nil || len(s.Funcs) != 2 || s.Funcs[0].Samples != 10+11+13 {
		t.Fatalf("duplicate names decoded to %+v, %v; want f with 34 samples, and g", s, err)
	}
	for _, in := range inputs {
		step := max(len(in)/64, 1)
		for cut := 0; cut <= len(in); cut++ {
			if cut > 64 && cut < len(in)-64 && cut%step != 0 {
				continue
			}
			matchReference(t, in[:cut])
		}
	}
}

// FuzzDecodeMatchesReference widens TestDecodeMatchesReference to arbitrary
// input, starting from the committed FuzzDecode corpus.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, in := range committedCorpus(f) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) { matchReference(t, data) })
}

// matchReference fails t unless Decode and referenceDecode agree on data.
func matchReference(t testing.TB, data []byte) {
	t.Helper()
	want, werr := referenceDecode(bytes.NewReader(data))
	got, err := Decode(bytes.NewReader(data))
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%d-byte input: error %v, reference %v", len(data), err, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d-byte input: decoded %+v, reference %+v", len(data), got, want)
	}
}

// committedCorpus returns the inputs of testdata/fuzz/FuzzDecode.
func committedCorpus(t testing.TB) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no FuzzDecode corpus: %v", err)
	}
	var out [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		_, line, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		quoted, ok := strings.CutPrefix(line, "[]byte(")
		if !ok {
			t.Fatalf("%s: not a []byte corpus entry", p)
		}
		in, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out = append(out, []byte(in))
	}
	return out
}

// symbolRich returns a cumulative dump of n functions named like a
// symbol-rich Go service's, with seeded, deterministic counters.
func symbolRich(n int) *profile.Sample {
	s := &profile.Sample{Seq: 41, Timestamp: 42 * time.Second, SamplePeriod: 10 * time.Millisecond}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		samples := int64(x % 5000)
		s.Funcs = append(s.Funcs, profile.FuncRecord{
			Name:     fmt.Sprintf("github.com/acme/shop/internal/svc%02d.(*handler%02d).Serve%02d", i/100, i/10%10, i%10),
			Samples:  samples,
			SelfTime: time.Duration(samples)*10*time.Millisecond + time.Duration(x>>40%1e6),
			Calls:    samples * int64(1+x>>20%64),
		})
	}
	s.Normalize()
	return s
}

func encoded(t testing.TB, s *profile.Sample) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gunzip(t testing.TB, data []byte) []byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// duplicateNames is a raw two-column profile whose string table holds "f"
// at two indices, each named by its own function, with multi-frame stacks:
// the decoder must fold both functions into one "f" record.
func duplicateNames() []byte {
	var top wireWriter
	vt := func(typ, unit uint64) []byte {
		var w wireWriter
		w.varintField(vtType, typ)
		w.varintField(vtUnit, unit)
		return w.buf
	}
	top.bytesField(fSampleType, vt(1, 2))
	top.bytesField(fSampleType, vt(3, 4))
	for i, locs := range [][]uint64{{1, 3}, {2, 3}, {3}, {2}} {
		var sm wireWriter
		sm.packedField(sLocationID, locs)
		sm.packedField(sValue, []uint64{uint64(10 + i), uint64(10+i) * 1e7})
		top.bytesField(fSample, sm.buf)
	}
	for id, name := range []uint64{5, 6, 7} { // f, f, g
		var line wireWriter
		line.varintField(lineFunctionID, uint64(id+1))
		var loc wireWriter
		loc.varintField(locID, uint64(id+1))
		loc.bytesField(locLine, line.buf)
		top.bytesField(fLocation, loc.buf)
		var fn wireWriter
		fn.varintField(fnID, uint64(id+1))
		fn.varintField(fnName, name)
		top.bytesField(fFunction, fn.buf)
	}
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds", "f", "f", "g"} {
		top.bytesField(fStringTab, []byte(s))
	}
	return top.buf
}

// twoFaults returns variants of duplicateNames with two faults each, caught
// by different checks, so that agreeing on the error pins the order the
// checks run in.
func twoFaults() [][]byte {
	neg := ^uint64(0) // -1 as a varint-encoded int64
	var out [][]byte
	for _, add := range []func(w *wireWriter){
		func(w *wireWriter) { // sample type named out of table; negative time
			w.bytesField(fSampleType, []byte{0x08, 99})
			w.tag(fTimeNanos, wtVarint)
			w.uvarint(neg)
		},
		func(w *wireWriter) { // negative time; period unit out of table
			w.tag(fTimeNanos, wtVarint)
			w.uvarint(neg)
			w.varintField(fPeriod, 5)
			w.bytesField(fPeriodType, []byte{0x08, 3, 0x10, 99})
		},
		func(w *wireWriter) { // unknown location; comment out of table
			w.bytesField(fSample, []byte{0x0a, 0x01, 99, 0x12, 0x01, 1})
			w.packedField(fComment, []uint64{99})
		},
		func(w *wireWriter) { // negative value; bad seq comment
			w.bytesField(fSample, []byte{0x0a, 0x01, 1, 0x12, 0x0a, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
			w.bytesField(fStringTab, []byte("seq=x"))
			w.packedField(fComment, []uint64{8})
		},
	} {
		w := wireWriter{buf: duplicateNames()}
		add(&w)
		out = append(out, w.buf)
	}
	return out
}
