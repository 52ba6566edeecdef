package gcov

import (
	"bytes"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/profile"
)

func TestToSampleCarriesCounters(t *testing.T) {
	s := &Snapshot{
		Seq:       2,
		Timestamp: 3 * time.Second,
		Calls:     map[string]int64{"f": 4, "callonly": 9},
		Blocks:    map[string]int64{"f": 100, "blockonly": 7},
	}
	sm := s.ToSample()
	if sm.Seq != 2 || sm.Timestamp != 3*time.Second || sm.SamplePeriod != BlockPeriod {
		t.Fatalf("metadata: %+v", sm)
	}
	f, ok := sm.Func("f")
	if !ok || f.Samples != 100 || f.SelfTime != 100*BlockPeriod || f.Calls != 4 {
		t.Fatalf("f = %+v", f)
	}
	if rec, ok := sm.Func("callonly"); !ok || rec.Calls != 9 || rec.Samples != 0 {
		t.Fatalf("callonly = %+v", rec)
	}
	if rec, ok := sm.Func("blockonly"); !ok || rec.Samples != 7 || rec.Calls != 0 {
		t.Fatalf("blockonly = %+v", rec)
	}
}

func TestJaCoCoFormatRegistration(t *testing.T) {
	f, ok := profile.Lookup("jacoco")
	if !ok {
		t.Fatal("jacoco format not registered")
	}
	if f.FilePrefix != "jacoco.out." {
		t.Fatalf("prefix = %q", f.FilePrefix)
	}
	if !f.Detect([]byte("<?xml version=\"1.0\"?>\n<report name=\"x\">")) {
		t.Fatal("Detect rejects a JaCoCo report")
	}
	if f.Detect([]byte(profile.Magic)) {
		t.Fatal("Detect accepts IGMN binary")
	}
}

// A boolean-coverage sample survives the XML round trip: covered functions
// come back with unit sample/self/call, magnitudes are honestly flattened.
func TestJaCoCoRoundTrip(t *testing.T) {
	s := &profile.Sample{
		Seq:          5,
		Timestamp:    2500 * time.Millisecond,
		SamplePeriod: BooleanSelf,
		Funcs: []profile.FuncRecord{
			{Name: "solve", Samples: 40, SelfTime: 2 * time.Second, Calls: 12},
			{Name: "io", Samples: 1, SelfTime: time.Millisecond, Calls: 1},
		},
	}
	s.Normalize()
	var buf bytes.Buffer
	if err := EncodeJaCoCo(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJaCoCo(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 5 || got.Timestamp != 2500*time.Millisecond {
		t.Fatalf("metadata: %+v", got)
	}
	for _, name := range []string{"solve", "io"} {
		rec, ok := got.Func(name)
		if !ok || rec.Samples != 1 || rec.SelfTime != BooleanSelf || rec.Calls != 1 {
			t.Fatalf("%s = %+v, want unit boolean coverage", name, rec)
		}
	}
}

func TestDecodeJaCoCoRejectsGarbage(t *testing.T) {
	if _, err := DecodeJaCoCo(bytes.NewReader([]byte("not xml at all"))); err == nil {
		t.Fatal("decoded garbage")
	}
}

// Cumulative (dump-without-reset) JaCoCo dumps difference through the
// canonical kernel: newly covered functions surface per interval.
func TestJaCoCoSeriesReachesAnalysisCore(t *testing.T) {
	writeDump := func(seq int, ts time.Duration, active map[string]bool) *profile.Sample {
		var buf bytes.Buffer
		if err := WriteJaCoCoXML(&buf, "app", seq, ts, active); err != nil {
			t.Fatal(err)
		}
		s, err := DecodeJaCoCo(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	samples := []*profile.Sample{
		writeDump(0, time.Second, map[string]bool{"init": true}),
		writeDump(1, 2*time.Second, map[string]bool{"init": true, "solve": true}),
		writeDump(2, 3*time.Second, map[string]bool{"init": true, "solve": true, "report": true}),
	}
	profs, err := interval.Difference(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 3 {
		t.Fatalf("profiles = %d", len(profs))
	}
	if profs[0].Self["init"] <= 0 || profs[0].Self["solve"] > 0 {
		t.Fatalf("interval 0: %v", profs[0].Self)
	}
	if profs[1].Self["solve"] <= 0 || profs[1].Self["init"] > 0 {
		t.Fatalf("interval 1 should hold only the newly covered function: %v", profs[1].Self)
	}
	if profs[2].Self["report"] <= 0 {
		t.Fatalf("interval 2: %v", profs[2].Self)
	}
}
