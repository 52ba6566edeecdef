package exec

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/incprof/incprof/internal/vclock"
)

// recorder captures listener events for assertions.
type recorder struct {
	enters   []FuncID
	exits    []FuncID
	advances []struct {
		fn FuncID
		d  time.Duration
		at vclock.Time
	}
}

func (r *recorder) Enter(fn FuncID, _ vclock.Time) { r.enters = append(r.enters, fn) }
func (r *recorder) Exit(fn FuncID, _ vclock.Time)  { r.exits = append(r.exits, fn) }
func (r *recorder) Advance(fn FuncID, d time.Duration, at vclock.Time) {
	r.advances = append(r.advances, struct {
		fn FuncID
		d  time.Duration
		at vclock.Time
	}{fn, d, at})
}

func TestRegisterIdempotent(t *testing.T) {
	rt := New(nil)
	a := rt.Register("main")
	b := rt.Register("main")
	if a != b {
		t.Fatalf("Register not idempotent: %d vs %d", a, b)
	}
	c := rt.Register("solve")
	if c == a {
		t.Fatal("distinct names share an ID")
	}
	if rt.NumFuncs() != 2 {
		t.Fatalf("NumFuncs = %d, want 2", rt.NumFuncs())
	}
	if rt.FuncName(a) != "main" || rt.FuncName(c) != "solve" {
		t.Fatal("FuncName mismatch")
	}
}

func TestLookup(t *testing.T) {
	rt := New(nil)
	id := rt.Register("f")
	if got, ok := rt.Lookup("f"); !ok || got != id {
		t.Fatalf("Lookup(f) = %v,%v", got, ok)
	}
	if _, ok := rt.Lookup("missing"); ok {
		t.Fatal("Lookup found unregistered name")
	}
}

func TestRegisterEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(nil).Register("")
}

func TestCallStackDiscipline(t *testing.T) {
	rt := New(nil)
	main := rt.Register("main")
	inner := rt.Register("inner")
	if rt.Current() != NoFunc || len(rt.Stack()) != 0 {
		t.Fatal("fresh runtime not idle")
	}
	rt.Call(main, func() {
		if rt.Current() != main || rt.Caller() != NoFunc || len(rt.Stack()) != 1 {
			t.Fatalf("inside main: current=%v caller=%v stack=%v", rt.Current(), rt.Caller(), rt.Stack())
		}
		rt.Call(inner, func() {
			if rt.Current() != inner || rt.Caller() != main || len(rt.Stack()) != 2 {
				t.Fatal("inside inner: wrong stack view")
			}
			st := rt.Stack()
			if len(st) != 2 || st[0] != main || st[1] != inner {
				t.Fatalf("Stack = %v", st)
			}
		})
		if rt.Current() != main {
			t.Fatal("stack not popped after inner returns")
		}
	})
	if rt.Current() != NoFunc {
		t.Fatal("stack not empty after main returns")
	}
}

func TestCallEnterExitEvents(t *testing.T) {
	rt := New(nil)
	rec := &recorder{}
	rt.AddListener(rec)
	f := rt.Register("f")
	g := rt.Register("g")
	rt.Call(f, func() {
		rt.Call(g, func() {})
		rt.Call(g, func() {})
	})
	wantEnters := []FuncID{f, g, g}
	wantExits := []FuncID{g, g, f}
	if len(rec.enters) != 3 || len(rec.exits) != 3 {
		t.Fatalf("events: %d enters %d exits", len(rec.enters), len(rec.exits))
	}
	for i := range wantEnters {
		if rec.enters[i] != wantEnters[i] || rec.exits[i] != wantExits[i] {
			t.Fatalf("enters=%v exits=%v", rec.enters, rec.exits)
		}
	}
}

func TestCallUnregisteredPanics(t *testing.T) {
	rt := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	rt.Call(FuncID(5), func() {})
}

func TestCallPanicStillPopsAndExits(t *testing.T) {
	rt := New(nil)
	rec := &recorder{}
	rt.AddListener(rec)
	f := rt.Register("f")
	func() {
		defer func() { recover() }()
		rt.Call(f, func() { panic("boom") })
	}()
	if len(rt.Stack()) != 0 {
		t.Fatal("stack not unwound after panic")
	}
	if len(rec.exits) != 1 || rec.exits[0] != f {
		t.Fatalf("Exit not delivered on panic: %v", rec.exits)
	}
}

func TestWorkAdvancesClockAndAttributes(t *testing.T) {
	rt := New(nil)
	rec := &recorder{}
	rt.AddListener(rec)
	f := rt.Register("f")
	rt.Call(f, func() { rt.Work(3 * time.Second) })
	if rt.Now() != vclock.Time(3*time.Second) {
		t.Fatalf("Now = %v", rt.Now())
	}
	var total time.Duration
	for _, a := range rec.advances {
		if a.fn != f {
			t.Fatalf("work attributed to %v, want %v", a.fn, f)
		}
		total += a.d
	}
	if total != 3*time.Second {
		t.Fatalf("attributed total = %v, want 3s", total)
	}
}

func TestWorkOutsideCallPanics(t *testing.T) {
	rt := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	rt.Work(time.Second)
}

func TestWorkNegativePanics(t *testing.T) {
	rt := New(nil)
	f := rt.Register("f")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	rt.Call(f, func() { rt.Work(-1) })
}

// The essential interval property: a timer at t=1s observes exactly the
// work performed in [0, 1s], even when a single Work call spans the
// boundary.
func TestWorkSplitsAtTimerBoundary(t *testing.T) {
	rt := New(nil)
	rec := &recorder{}
	rt.AddListener(rec)
	f := rt.Register("f")

	var seenAtTick time.Duration
	rt.Clock().AfterFunc(time.Second, func(vclock.Time) {
		for _, a := range rec.advances {
			seenAtTick += a.d
		}
	})
	rt.Call(f, func() { rt.Work(2500 * time.Millisecond) })
	if seenAtTick != time.Second {
		t.Fatalf("timer at 1s observed %v of work, want exactly 1s", seenAtTick)
	}
	if rt.Now() != vclock.Time(2500*time.Millisecond) {
		t.Fatalf("Now = %v", rt.Now())
	}
}

func TestWorkAdvanceEventPrecedesTimer(t *testing.T) {
	rt := New(nil)
	var order []string
	rt.AddListener(listenerFuncs{onAdvance: func(FuncID, time.Duration, vclock.Time) {
		order = append(order, "advance")
	}})
	rt.Clock().AfterFunc(time.Second, func(vclock.Time) { order = append(order, "timer") })
	f := rt.Register("f")
	rt.Call(f, func() { rt.Work(time.Second) })
	if len(order) != 2 || order[0] != "advance" || order[1] != "timer" {
		t.Fatalf("order = %v, want [advance timer]", order)
	}
}

// listenerFuncs adapts closures to the Listener interface.
type listenerFuncs struct {
	BaseListener
	onAdvance func(FuncID, time.Duration, vclock.Time)
}

func (l listenerFuncs) Advance(fn FuncID, d time.Duration, now vclock.Time) {
	if l.onAdvance != nil {
		l.onAdvance(fn, d, now)
	}
}

func TestWorkUntil(t *testing.T) {
	rt := New(nil)
	f := rt.Register("f")
	rt.Call(f, func() {
		rt.Work(time.Second)
		rt.WorkUntil(vclock.Time(3 * time.Second))
		rt.WorkUntil(vclock.Time(2 * time.Second)) // in the past: no-op
	})
	if rt.Now() != vclock.Time(3*time.Second) {
		t.Fatalf("Now = %v, want 3s", rt.Now())
	}
}

func TestRemoveListener(t *testing.T) {
	rt := New(nil)
	rec := &recorder{}
	rt.AddListener(rec)
	if rt.NumListeners() != 1 {
		t.Fatal("listener not added")
	}
	if !rt.RemoveListener(rec) {
		t.Fatal("RemoveListener did not find listener")
	}
	if rt.RemoveListener(rec) {
		t.Fatal("double remove succeeded")
	}
	f := rt.Register("f")
	rt.Call(f, func() { rt.Work(time.Second) })
	if len(rec.enters) != 0 || len(rec.advances) != 0 {
		t.Fatal("removed listener still receives events")
	}
}

func TestFuncNameNoFuncAndOutOfRange(t *testing.T) {
	rt := New(nil)
	if rt.FuncName(NoFunc) != "<none>" {
		t.Fatal("FuncName(NoFunc)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range id")
		}
	}()
	rt.FuncName(FuncID(99))
}

// Property: total attributed work equals the clock displacement regardless
// of how work is nested and split, with no timers involved.
func TestPropertyWorkConservation(t *testing.T) {
	f := func(chunksMs []uint8) bool {
		if len(chunksMs) > 50 {
			chunksMs = chunksMs[:50]
		}
		rt := New(nil)
		var attributed time.Duration
		rt.AddListener(listenerFuncs{onAdvance: func(_ FuncID, d time.Duration, _ vclock.Time) {
			attributed += d
		}})
		fa := rt.Register("a")
		fb := rt.Register("b")
		var want time.Duration
		rt.Call(fa, func() {
			for i, ms := range chunksMs {
				d := time.Duration(ms) * time.Millisecond
				want += d
				if i%2 == 0 {
					rt.Work(d)
				} else {
					rt.Call(fb, func() { rt.Work(d) })
				}
			}
		})
		return attributed == want && rt.Now() == vclock.Time(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a periodic ticker attached, every Advance event lies
// entirely within one tick period (events never straddle a boundary).
func TestPropertyAdvanceNeverStraddlesTick(t *testing.T) {
	f := func(chunksMs []uint8) bool {
		if len(chunksMs) > 40 {
			chunksMs = chunksMs[:40]
		}
		rt := New(nil)
		period := 100 * time.Millisecond
		ok := true
		rt.AddListener(listenerFuncs{onAdvance: func(_ FuncID, d time.Duration, now vclock.Time) {
			start := now.Sub(0) - d
			// start and end must fall within the same period bucket,
			// where an end exactly on a boundary belongs to the
			// preceding bucket.
			bStart := int64(start) / int64(period)
			endNs := int64(now.Sub(0))
			bEnd := (endNs - 1) / int64(period)
			if d > 0 && endNs > 0 && bStart != bEnd {
				ok = false
			}
		}})
		rt.Clock().NewTicker(period, func(vclock.Time) {})
		fa := rt.Register("a")
		rt.Call(fa, func() {
			for _, ms := range chunksMs {
				rt.Work(time.Duration(ms) * time.Millisecond)
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCallNoListeners(b *testing.B) {
	rt := New(nil)
	f := rt.Register("f")
	body := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Call(f, body)
	}
}

func BenchmarkCallWithThreeListeners(b *testing.B) {
	rt := New(nil)
	for i := 0; i < 3; i++ {
		rt.AddListener(&recorder{})
	}
	f := rt.Register("f")
	body := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Call(f, body)
	}
}

func BenchmarkWorkNoTimers(b *testing.B) {
	rt := New(nil)
	f := rt.Register("f")
	rt.Call(f, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Work(time.Microsecond)
		}
	})
}
