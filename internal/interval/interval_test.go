package interval

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/incprof/incprof/internal/exec"
	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/profiler"
)

func snap(seq int, ts time.Duration, recs ...profile.FuncRecord) *profile.Sample {
	s := &profile.Sample{Seq: seq, Timestamp: ts, SamplePeriod: 10 * time.Millisecond, Funcs: recs}
	s.Normalize()
	return s
}

func TestDifferenceBasic(t *testing.T) {
	snaps := []*profile.Sample{
		snap(0, time.Second,
			profile.FuncRecord{Name: "a", Samples: 50, SelfTime: 500 * time.Millisecond, Calls: 2},
			profile.FuncRecord{Name: "b", Samples: 50, SelfTime: 500 * time.Millisecond, Calls: 10},
		),
		snap(1, 2*time.Second,
			profile.FuncRecord{Name: "a", Samples: 150, SelfTime: 1500 * time.Millisecond, Calls: 3},
			profile.FuncRecord{Name: "b", Samples: 50, SelfTime: 500 * time.Millisecond, Calls: 10},
		),
	}
	profs, err := Difference(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 2 {
		t.Fatalf("got %d profiles", len(profs))
	}
	p0, p1 := profs[0], profs[1]
	if p0.Start != 0 || p0.End != time.Second || p1.Start != time.Second || p1.End != 2*time.Second {
		t.Fatalf("bounds: %v-%v, %v-%v", p0.Start, p0.End, p1.Start, p1.End)
	}
	if p0.Self["a"] != 500*time.Millisecond || p0.Calls["b"] != 10 {
		t.Fatalf("first interval = cumulative snapshot: %+v", p0)
	}
	if p1.Self["a"] != time.Second {
		t.Fatalf("interval 1 self(a) = %v, want 1s", p1.Self["a"])
	}
	if _, ok := p1.Self["b"]; ok {
		t.Fatal("b was inactive in interval 1 but has a Self entry")
	}
	if p1.Calls["a"] != 1 {
		t.Fatalf("interval 1 calls(a) = %d, want 1", p1.Calls["a"])
	}
	if p1.Self["a"] <= 0 || p1.Self["b"] > 0 {
		t.Fatal("sampled activity wrong")
	}
}

func TestDifferenceRejectsRegression(t *testing.T) {
	snaps := []*profile.Sample{
		snap(0, time.Second, profile.FuncRecord{Name: "a", Samples: 50, Calls: 5}),
		snap(1, 2*time.Second, profile.FuncRecord{Name: "a", Samples: 40, Calls: 6}),
	}
	if _, err := Difference(snaps); err == nil {
		t.Fatal("accepted a regressing cumulative counter")
	}
}

func TestDifferenceRejectsOutOfOrderTimestamps(t *testing.T) {
	snaps := []*profile.Sample{
		snap(0, 2*time.Second, profile.FuncRecord{Name: "a", Samples: 1}),
		snap(1, time.Second, profile.FuncRecord{Name: "a", Samples: 2}),
	}
	if _, err := Difference(snaps); err == nil {
		t.Fatal("accepted out-of-order snapshots")
	}
}

func TestDifferenceRejectsPeriodChange(t *testing.T) {
	a := snap(0, time.Second, profile.FuncRecord{Name: "a", Samples: 1})
	b := snap(1, 2*time.Second, profile.FuncRecord{Name: "a", Samples: 2})
	b.SamplePeriod = time.Millisecond
	if _, err := Difference([]*profile.Sample{a, b}); err == nil {
		t.Fatal("accepted a sample-period change mid-run")
	}
}

func TestDifferenceEmpty(t *testing.T) {
	profs, err := Difference(nil)
	if err != nil || len(profs) != 0 {
		t.Fatalf("Difference(nil) = %v, %v", profs, err)
	}
}

func TestFeaturesSampledSelf(t *testing.T) {
	profs := []Profile{
		{Index: 0, Self: map[string]time.Duration{"b": time.Second}},
		{Index: 1, Self: map[string]time.Duration{"a": 500 * time.Millisecond}},
	}
	m := FeaturesCSR(profs, FeatureOptions{})
	if len(m.FuncNames) != 2 || m.FuncNames[0] != "a" || m.FuncNames[1] != "b" {
		t.Fatalf("FuncNames = %v, want sorted [a b]", m.FuncNames)
	}
	if m.Dims() != 2 {
		t.Fatalf("Dims = %d", m.Dims())
	}
	rows := m.Sparse.Dense()
	if rows[0][0] != 0 || rows[0][1] != 1 {
		t.Fatalf("row 0 = %v", rows[0])
	}
	if rows[1][0] != 0.5 || rows[1][1] != 0 {
		t.Fatalf("row 1 = %v", rows[1])
	}
}

func TestFeaturesExclude(t *testing.T) {
	profs := []Profile{
		{Self: map[string]time.Duration{"MPI_Barrier": time.Second, "compute": time.Second}},
	}
	m := FeaturesCSR(profs, FeatureOptions{Exclude: func(n string) bool { return n == "MPI_Barrier" }})
	if len(m.FuncNames) != 1 || m.FuncNames[0] != "compute" {
		t.Fatalf("FuncNames = %v", m.FuncNames)
	}
}

func TestFeaturesSelfPlusCalls(t *testing.T) {
	profs := []Profile{
		{Self: map[string]time.Duration{"a": time.Second}, Calls: map[string]int64{"a": 7}},
	}
	m := FeaturesCSR(profs, FeatureOptions{Kind: SelfPlusCalls})
	if len(m.FuncNames) != 2 || m.FuncNames[1] != "#calls:a" {
		t.Fatalf("FuncNames = %v", m.FuncNames)
	}
	if row := m.Sparse.Dense()[0]; row[0] != 1 || row[1] != 7 {
		t.Fatalf("row = %v", row)
	}
}

func TestFeaturesCallOnlyFunctionIncludedInSelfPlusCalls(t *testing.T) {
	// A function with calls but no samples (escaped the profiling clock)
	// is a dimension only in SelfPlusCalls mode.
	profs := []Profile{
		{Self: map[string]time.Duration{"big": time.Second}, Calls: map[string]int64{"tiny": 100}},
	}
	m := FeaturesCSR(profs, FeatureOptions{})
	if len(m.FuncNames) != 1 {
		t.Fatalf("SampledSelf picked up call-only function: %v", m.FuncNames)
	}
	m2 := FeaturesCSR(profs, FeatureOptions{Kind: SelfPlusCalls})
	if len(m2.FuncNames) != 4 { // big, tiny, #calls:big, #calls:tiny
		t.Fatalf("SelfPlusCalls dims = %v", m2.FuncNames)
	}
}

func TestFeatureKindString(t *testing.T) {
	if SampledSelf.String() != "sampled-self" || ExactSelf.String() != "exact-self" || SelfPlusCalls.String() != "self+calls" {
		t.Fatal("FeatureKind names")
	}
	if FeatureKind(9).String() == "" {
		t.Fatal("unknown kind must still stringify")
	}
}

// End-to-end: differencing real collector output recovers per-interval work.
func TestDifferenceOverRealCollection(t *testing.T) {
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := incprof.New(rt, p, incprof.Options{})
	main := rt.Register("main")
	phase1 := rt.Register("phase1")
	phase2 := rt.Register("phase2")
	rt.Call(main, func() {
		rt.Call(phase1, func() { rt.Work(3 * time.Second) })
		rt.Call(phase2, func() { rt.Work(2 * time.Second) })
	})
	c.Close()
	snaps, _ := c.Store().Snapshots()
	profs, err := Difference(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 5 {
		t.Fatalf("got %d intervals", len(profs))
	}
	// Intervals 0-2 are pure phase1; intervals 3-4 pure phase2.
	for i := 0; i < 3; i++ {
		if profs[i].Self["phase1"] != time.Second || profs[i].Self["phase2"] > 0 {
			t.Fatalf("interval %d: %+v", i, profs[i].Self)
		}
	}
	for i := 3; i < 5; i++ {
		if profs[i].Self["phase2"] != time.Second || profs[i].Self["phase1"] > 0 {
			t.Fatalf("interval %d: %+v", i, profs[i].Self)
		}
	}
	// phase1 called once, in the first interval only.
	if profs[0].Calls["phase1"] != 1 || profs[1].Calls["phase1"] != 0 {
		t.Fatalf("call differencing wrong: %v then %v", profs[0].Calls, profs[1].Calls)
	}
}

// Property: summing interval deltas over any prefix reproduces the
// cumulative snapshot (differencing inverts accumulation).
func TestPropertyDifferenceInvertsAccumulation(t *testing.T) {
	f := func(increments []uint8) bool {
		if len(increments) > 30 {
			increments = increments[:30]
		}
		var snaps []*profile.Sample
		var cum int64
		for i, inc := range increments {
			cum += int64(inc)
			snaps = append(snaps, snap(i, time.Duration(i+1)*time.Second,
				profile.FuncRecord{Name: "f", Samples: cum, SelfTime: time.Duration(cum) * 10 * time.Millisecond, Calls: cum}))
		}
		profs, err := Difference(snaps)
		if err != nil {
			return false
		}
		var sum time.Duration
		var calls int64
		for _, p := range profs {
			sum += p.Self["f"]
			calls += p.Calls["f"]
		}
		return sum == time.Duration(cum)*10*time.Millisecond && calls == cum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDifference60Intervals(b *testing.B) {
	var snaps []*profile.Sample
	for i := 0; i < 60; i++ {
		recs := make([]profile.FuncRecord, 40)
		for j := range recs {
			recs[j] = profile.FuncRecord{
				Name:    "fn" + string(rune('a'+j%26)) + string(rune('0'+j/26)),
				Samples: int64((i + 1) * (j + 1)),
				Calls:   int64((i + 1) * j),
			}
		}
		snaps = append(snaps, snap(i, time.Duration(i+1)*time.Second, recs...))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Difference(snaps); err != nil {
			b.Fatal(err)
		}
	}
}

// DifferenceP must produce exactly what the serial loop produces — profiles
// by index with identical maps — for any worker-pool bound.
func TestDifferencePMatchesSerial(t *testing.T) {
	var snaps []*profile.Sample
	for i := 0; i < 40; i++ {
		snaps = append(snaps, snap(i, time.Duration(i+1)*time.Second,
			profile.FuncRecord{Name: "a", Samples: int64(10 * (i + 1)), SelfTime: time.Duration(i+1) * 100 * time.Millisecond, Calls: int64(i + 1)},
			profile.FuncRecord{Name: "b", Samples: int64(5 * (i + 1)), Calls: int64(2 * (i + 1))},
		))
	}
	serial, err := DifferenceP(snaps, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		parallel, err := DifferenceP(snaps, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(parallel) != len(serial) {
			t.Fatalf("parallelism %d: %d profiles, want %d", p, len(parallel), len(serial))
		}
		for i := range serial {
			a, b := serial[i], parallel[i]
			if a.Index != b.Index || a.Start != b.Start || a.End != b.End {
				t.Fatalf("parallelism %d: profile %d bounds differ", p, i)
			}
			if len(a.Self) != len(b.Self) || len(a.Calls) != len(b.Calls) || len(a.ExactSelf) != len(b.ExactSelf) {
				t.Fatalf("parallelism %d: profile %d map sizes differ", p, i)
			}
			for fn, d := range a.Self {
				if b.Self[fn] != d {
					t.Fatalf("parallelism %d: profile %d Self[%s] = %v, want %v", p, i, fn, b.Self[fn], d)
				}
			}
			for fn, n := range a.Calls {
				if b.Calls[fn] != n {
					t.Fatalf("parallelism %d: profile %d Calls[%s] = %d, want %d", p, i, fn, b.Calls[fn], n)
				}
			}
		}
	}
}

// Validation failures must surface the lowest-index error, matching the one
// a serial scan reports first.
func TestDifferencePReportsLowestIndexError(t *testing.T) {
	snaps := []*profile.Sample{
		snap(0, time.Second, profile.FuncRecord{Name: "a", Samples: 50}),
		snap(1, 2*time.Second, profile.FuncRecord{Name: "a", Samples: 40}), // regression at pair (0,1)
		snap(2, time.Second, profile.FuncRecord{Name: "a", Samples: 45}),   // out of order at pair (1,2)
	}
	for _, p := range []int{1, 8} {
		_, err := DifferenceP(snaps, p)
		if err == nil {
			t.Fatalf("parallelism %d: accepted corrupted snapshots", p)
		}
		if !strings.Contains(err.Error(), "regressed") {
			t.Fatalf("parallelism %d: err = %v, want the lowest-index (regression) error", p, err)
		}
	}
}
