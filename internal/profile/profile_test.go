package profile

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sample() *Sample {
	s := &Sample{
		Seq:          3,
		Timestamp:    4 * time.Second,
		SamplePeriod: 10 * time.Millisecond,
		Funcs: []FuncRecord{
			{Name: "run_bfs", Samples: 120, SelfTime: 1205 * time.Millisecond, Calls: 7},
			{Name: "make_one_edge", Samples: 30, SelfTime: 301 * time.Millisecond, Calls: 90000},
			{Name: "validate_bfs_result", Samples: 250, SelfTime: 2498 * time.Millisecond, Calls: 2},
		},
		Arcs: []Arc{
			{Caller: "main", Callee: "run_bfs", Count: 7},
			{Caller: "main", Callee: "validate_bfs_result", Count: 2},
		},
	}
	s.Normalize()
	return s
}

func TestNormalizeSorts(t *testing.T) {
	s := sample()
	for i := 1; i < len(s.Funcs); i++ {
		if s.Funcs[i-1].Name >= s.Funcs[i].Name {
			t.Fatalf("funcs not sorted: %v", s.Funcs)
		}
	}
	for i := 1; i < len(s.Arcs); i++ {
		a, b := s.Arcs[i-1], s.Arcs[i]
		if a.Caller > b.Caller || (a.Caller == b.Caller && a.Callee >= b.Callee) {
			t.Fatalf("arcs not sorted: %v", s.Arcs)
		}
	}
}

func TestFuncLookup(t *testing.T) {
	s := sample()
	rec, ok := s.Func("run_bfs")
	if !ok || rec.Calls != 7 {
		t.Fatalf("Func(run_bfs) = %+v, %v", rec, ok)
	}
	if _, ok := s.Func("nonexistent"); ok {
		t.Fatal("found a function that is not there")
	}
}

func TestSampledSelf(t *testing.T) {
	s := sample()
	rec, _ := s.Func("run_bfs")
	if got := s.SampledSelf(rec); got != 1200*time.Millisecond {
		t.Fatalf("SampledSelf = %v, want 1.2s", got)
	}
	if got := s.TotalSampledSelf(); got != 4*time.Second {
		t.Fatalf("TotalSampledSelf = %v, want 4s (400 samples x 10ms)", got)
	}
}

func TestClone(t *testing.T) {
	s := sample()
	c := s.Clone()
	c.Funcs[0].Samples = 999999
	c.Arcs[0].Count = 999999
	if s.Funcs[0].Samples == 999999 || s.Arcs[0].Count == 999999 {
		t.Fatal("Clone shares backing arrays")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sample()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	s := sample()
	var a, b bytes.Buffer
	if err := s.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("decoded garbage")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	s := sample()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, len(Magic), len(full) / 2, len(full) - 1} {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("decoded a %d-byte truncation of a %d-byte sample", cut, len(full))
		}
	}
}

func TestDecodeRejectsHugeCounts(t *testing.T) {
	// Craft a header claiming an absurd function count.
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.WriteByte(Version)                          // version uvarint
	buf.WriteByte(0)                                // seq
	buf.WriteByte(0)                                // timestamp
	buf.WriteByte(0)                                // sample period
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // huge nfuncs
	if _, err := Decode(&buf); err == nil {
		t.Fatal("accepted absurd function count")
	}
}

func TestEmptySampleRoundTrip(t *testing.T) {
	s := &Sample{Seq: 0, SamplePeriod: time.Millisecond}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Funcs) != 0 || len(got.Arcs) != 0 || got.SamplePeriod != time.Millisecond {
		t.Fatalf("empty round trip: %+v", got)
	}
}

// Property: binary round trip is the identity for arbitrary well-formed
// samples.
func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(names []string, samples []uint16, calls []uint16, seq uint8) bool {
		s := &Sample{Seq: int(seq), Timestamp: time.Duration(seq) * time.Second, SamplePeriod: 10 * time.Millisecond}
		seen := map[string]bool{}
		for i, n := range names {
			if i >= 32 {
				break
			}
			if n == "" || seen[n] {
				continue
			}
			seen[n] = true
			rec := FuncRecord{Name: n}
			if i < len(samples) {
				rec.Samples = int64(samples[i])
				rec.SelfTime = time.Duration(samples[i]) * 10 * time.Millisecond
			}
			if i < len(calls) {
				rec.Calls = int64(calls[i])
			}
			s.Funcs = append(s.Funcs, rec)
		}
		s.Normalize()
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(s, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	s := sample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	s := sample()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	for _, tc := range []struct {
		name string
		sec  float64
		want time.Duration
		ok   bool
	}{
		{"zero", 0, 0, true},
		{"fraction", 1.5, 1500 * time.Millisecond, true},
		{"near-max", 9e9, 9e18, true},
		{"negative", -5, 0, false},
		{"nan", math.NaN(), 0, false},
		{"inf", math.Inf(1), 0, false},
		{"out-of-range", 1e300, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := FromSeconds(tc.sec)
			if got != tc.want || ok != tc.ok {
				t.Fatalf("FromSeconds(%v) = %v, %v; want %v, %v", tc.sec, got, ok, tc.want, tc.ok)
			}
		})
	}
}
