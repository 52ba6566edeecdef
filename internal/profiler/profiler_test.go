package profiler

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/incprof/incprof/internal/exec"
)

func TestCallCounting(t *testing.T) {
	rt := exec.New(nil)
	p := New(rt, 0)
	f := rt.Register("f")
	g := rt.Register("g")
	rt.Call(f, func() {
		for i := 0; i < 5; i++ {
			rt.Call(g, func() {})
		}
	})
	if got := p.Calls(f); got != 1 {
		t.Fatalf("Calls(f) = %d, want 1", got)
	}
	if got := p.Calls(g); got != 5 {
		t.Fatalf("Calls(g) = %d, want 5", got)
	}
}

func TestSamplingAttributesSelfTime(t *testing.T) {
	rt := exec.New(nil)
	p := New(rt, 10*time.Millisecond)
	f := rt.Register("f")
	g := rt.Register("g")
	rt.Call(f, func() {
		rt.Work(1 * time.Second) // 100 ticks inside f
		rt.Call(g, func() {
			rt.Work(500 * time.Millisecond) // 50 ticks inside g
		})
	})
	if got := p.Samples(f); got != 100 {
		t.Fatalf("Samples(f) = %d, want 100", got)
	}
	if got := p.Samples(g); got != 50 {
		t.Fatalf("Samples(g) = %d, want 50", got)
	}
}

func TestSelfTimeIsSelfNotInclusive(t *testing.T) {
	rt := exec.New(nil)
	p := New(rt, time.Millisecond)
	parent := rt.Register("parent")
	child := rt.Register("child")
	rt.Call(parent, func() {
		rt.Work(100 * time.Millisecond)
		rt.Call(child, func() { rt.Work(300 * time.Millisecond) })
		rt.Work(100 * time.Millisecond)
	})
	if got := p.SelfTime(parent); got != 200*time.Millisecond {
		t.Fatalf("SelfTime(parent) = %v, want 200ms (exclusive of child)", got)
	}
	if got := p.SelfTime(child); got != 300*time.Millisecond {
		t.Fatalf("SelfTime(child) = %v, want 300ms", got)
	}
}

func TestShortFunctionsEscapeSampling(t *testing.T) {
	// A function shorter than the sample period that never spans a tick
	// gets zero samples — gprof's known blindness the paper relies on
	// ("not all functions ... end up represented").
	rt := exec.New(nil)
	p := New(rt, 10*time.Millisecond)
	f := rt.Register("f")
	tiny := rt.Register("tiny")
	rt.Call(f, func() {
		rt.Work(9 * time.Millisecond) // next tick at 10ms
		rt.Call(tiny, func() { rt.Work(500 * time.Microsecond) })
		// tick at 10ms lands back in f
		rt.Work(5 * time.Millisecond)
	})
	if got := p.Samples(tiny); got != 0 {
		t.Fatalf("Samples(tiny) = %d, want 0 (shorter than period, off-tick)", got)
	}
	if got := p.Calls(tiny); got != 1 {
		t.Fatalf("Calls(tiny) = %d, want 1 (mcount still sees it)", got)
	}
	if got := p.SelfTime(tiny); got != 500*time.Microsecond {
		t.Fatalf("exact SelfTime(tiny) = %v", got)
	}
}

func TestArcs(t *testing.T) {
	rt := exec.New(nil)
	p := New(rt, 0)
	main := rt.Register("main")
	a := rt.Register("a")
	b := rt.Register("b")
	rt.Call(main, func() {
		rt.Call(a, func() {
			rt.Call(b, func() {})
		})
		rt.Call(b, func() {})
		rt.Call(b, func() {})
	})
	s := p.Snapshot()
	wantArcs := map[[2]string]int64{
		{"main", "a"}: 1,
		{"a", "b"}:    1,
		{"main", "b"}: 2,
	}
	if len(s.Arcs) != len(wantArcs) {
		t.Fatalf("arcs = %+v", s.Arcs)
	}
	for _, arc := range s.Arcs {
		if wantArcs[[2]string{arc.Caller, arc.Callee}] != arc.Count {
			t.Fatalf("unexpected arc %+v", arc)
		}
	}
}

func TestSnapshotCumulativeAndSeq(t *testing.T) {
	rt := exec.New(nil)
	p := New(rt, 10*time.Millisecond)
	f := rt.Register("f")
	rt.Call(f, func() { rt.Work(time.Second) })
	s0 := p.Snapshot()
	rt.Call(f, func() { rt.Work(time.Second) })
	s1 := p.Snapshot()

	if s0.Seq != 0 || s1.Seq != 1 {
		t.Fatalf("seqs = %d,%d", s0.Seq, s1.Seq)
	}
	r0, _ := s0.Func("f")
	r1, _ := s1.Func("f")
	if r0.Samples != 100 || r1.Samples != 200 {
		t.Fatalf("samples not cumulative: %d then %d", r0.Samples, r1.Samples)
	}
	if r0.Calls != 1 || r1.Calls != 2 {
		t.Fatalf("calls not cumulative: %d then %d", r0.Calls, r1.Calls)
	}
	if s1.Timestamp != 2*time.Second {
		t.Fatalf("timestamp = %v", s1.Timestamp)
	}
}

func TestSnapshotIndependentOfLaterActivity(t *testing.T) {
	rt := exec.New(nil)
	p := New(rt, 10*time.Millisecond)
	f := rt.Register("f")
	rt.Call(f, func() { rt.Work(time.Second) })
	s := p.Snapshot()
	before, _ := s.Func("f")
	rt.Call(f, func() { rt.Work(time.Second) })
	after, _ := s.Func("f")
	if before.Samples != after.Samples {
		t.Fatal("snapshot mutated by later profiling activity")
	}
}

func TestStopDetaches(t *testing.T) {
	rt := exec.New(nil)
	p := New(rt, 10*time.Millisecond)
	f := rt.Register("f")
	rt.Call(f, func() { rt.Work(time.Second) })
	p.Stop()
	p.Stop() // idempotent
	rt.Call(f, func() { rt.Work(time.Second) })
	if got := p.Samples(f); got != 100 {
		t.Fatalf("Samples after Stop = %d, want 100 (no further collection)", got)
	}
	if got := p.Calls(f); got != 1 {
		t.Fatalf("Calls after Stop = %d, want 1", got)
	}
	if rt.NumListeners() != 0 {
		t.Fatal("profiler still attached after Stop")
	}
}

func TestFunctionsRegisteredLate(t *testing.T) {
	rt := exec.New(nil)
	p := New(rt, 10*time.Millisecond)
	f := rt.Register("f")
	rt.Call(f, func() { rt.Work(100 * time.Millisecond) })
	late := rt.Register("late")
	rt.Call(late, func() { rt.Work(100 * time.Millisecond) })
	if got := p.Samples(late); got != 10 {
		t.Fatalf("Samples(late) = %d, want 10", got)
	}
	s := p.Snapshot()
	if _, ok := s.Func("late"); !ok {
		t.Fatal("late-registered function missing from snapshot")
	}
}

func TestNegativePeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(exec.New(nil), -time.Millisecond)
}

// Property: total samples (busy + idle) equals elapsed time / period, and
// sampled self time never exceeds exact self time by more than one period
// per function "segment" — here we just check totals match the clock.
func TestPropertySampleConservation(t *testing.T) {
	f := func(chunks []uint8) bool {
		if len(chunks) > 40 {
			chunks = chunks[:40]
		}
		rt := exec.New(nil)
		period := 10 * time.Millisecond
		p := New(rt, period)
		fa := rt.Register("a")
		fb := rt.Register("b")
		rt.Call(fa, func() {
			for i, ms := range chunks {
				d := time.Duration(ms) * time.Millisecond
				if i%2 == 0 {
					rt.Work(d)
				} else {
					rt.Call(fb, func() { rt.Work(d) })
				}
			}
		})
		elapsed := rt.Now().Duration()
		wantTicks := int64(elapsed / period)
		return p.TotalSamples() == wantTicks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: sampled self time converges to exact self time for long-running
// functions (within one period per work segment).
func TestPropertySamplingAccuracy(t *testing.T) {
	f := func(nChunks uint8) bool {
		n := int(nChunks%20) + 1
		rt := exec.New(nil)
		period := 10 * time.Millisecond
		p := New(rt, period)
		fa := rt.Register("a")
		rt.Call(fa, func() {
			for i := 0; i < n; i++ {
				rt.Work(137 * time.Millisecond)
			}
		})
		exact := p.SelfTime(fa)
		sampled := time.Duration(p.Samples(fa)) * period
		diff := exact - sampled
		if diff < 0 {
			diff = -diff
		}
		return diff <= period
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProfiledCall(b *testing.B) {
	rt := exec.New(nil)
	New(rt, 10*time.Millisecond)
	f := rt.Register("f")
	body := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Call(f, body)
	}
}

func BenchmarkSnapshot100Funcs(b *testing.B) {
	rt := exec.New(nil)
	p := New(rt, 10*time.Millisecond)
	main := rt.Register("main")
	ids := make([]exec.FuncID, 100)
	for i := range ids {
		ids[i] = rt.Register("fn" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('0'+i/10)))
	}
	rt.Call(main, func() {
		for _, id := range ids {
			rt.Call(id, func() { rt.Work(time.Millisecond) })
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Snapshot()
	}
}

func TestAccessorsAndTotals(t *testing.T) {
	rt := exec.New(nil)
	p := New(rt, 20*time.Millisecond)
	if p.SamplePeriod() != 20*time.Millisecond {
		t.Fatalf("SamplePeriod = %v", p.SamplePeriod())
	}
	f := rt.Register("f")
	g := rt.Register("g")
	rt.Call(f, func() {
		rt.Work(200 * time.Millisecond)
		rt.Call(g, func() { rt.Work(100 * time.Millisecond) })
	})
	rt.Clock().Advance(100 * time.Millisecond) // idle ticks
	if got := p.TotalCalls(); got != 2 {
		t.Fatalf("TotalCalls = %d", got)
	}
	// 400ms elapsed at 20ms period = 20 ticks, busy + idle.
	if got := p.TotalSamples(); got != 20 {
		t.Fatalf("TotalSamples = %d, want 20", got)
	}
	// The 300ms of work took 15 of them; the rest were idle.
	if got := p.Samples(f) + p.Samples(g); got != 15 {
		t.Fatalf("busy ticks = %d, want 15", got)
	}
	// Out-of-range accessors are zero, not panics.
	if p.Calls(exec.FuncID(99)) != 0 || p.Samples(exec.FuncID(99)) != 0 || p.SelfTime(exec.FuncID(99)) != 0 {
		t.Fatal("out-of-range accessors nonzero")
	}
	if p.Calls(exec.NoFunc) != 0 || p.SelfTime(exec.NoFunc) != 0 {
		t.Fatal("NoFunc accessors nonzero")
	}
}

func TestZeroPeriodUsesDefault(t *testing.T) {
	rt := exec.New(nil)
	p := New(rt, 0)
	if p.SamplePeriod() != DefaultSamplePeriod {
		t.Fatalf("default period = %v", p.SamplePeriod())
	}
}
