package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestZeroClockReadsZero(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

func TestAdvanceMovesTime(t *testing.T) {
	c := New()
	c.Advance(3 * time.Second)
	if got := c.Now(); got != Time(3*time.Second) {
		t.Fatalf("Now() = %v, want 3s", got)
	}
	c.Advance(250 * time.Millisecond)
	if got := c.Now().Seconds(); got != 3.25 {
		t.Fatalf("Seconds() = %v, want 3.25", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New().Advance(-1)
}

func TestAfterFuncFiresAtDeadline(t *testing.T) {
	c := New()
	var fired []Time
	c.AfterFunc(2*time.Second, func(now Time) { fired = append(fired, now) })
	c.Advance(1 * time.Second)
	if len(fired) != 0 {
		t.Fatalf("timer fired early at %v", fired)
	}
	c.Advance(5 * time.Second)
	if len(fired) != 1 || fired[0] != Time(2*time.Second) {
		t.Fatalf("fired = %v, want exactly [2s]; timer must observe its own deadline, not the advance target", fired)
	}
}

func TestTimersFireInDeadlineOrder(t *testing.T) {
	c := New()
	var order []int
	c.AfterFunc(3*time.Second, func(Time) { order = append(order, 3) })
	c.AfterFunc(1*time.Second, func(Time) { order = append(order, 1) })
	c.AfterFunc(2*time.Second, func(Time) { order = append(order, 2) })
	c.Advance(10 * time.Second)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", order, want)
		}
	}
}

func TestEqualDeadlinesFireInScheduleOrder(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.AfterFunc(time.Second, func(Time) { order = append(order, i) })
	}
	c.Advance(time.Second)
	for i, got := range order {
		if got != i {
			t.Fatalf("equal-deadline order = %v, want ascending schedule order", order)
		}
	}
}

func TestStopPreventsFiring(t *testing.T) {
	c := New()
	fired := false
	tm := c.AfterFunc(time.Second, func(Time) { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	c.Advance(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestCallbackMayScheduleForCurrentInstant(t *testing.T) {
	c := New()
	var order []string
	c.AfterFunc(time.Second, func(now Time) {
		order = append(order, "outer")
		c.AtFunc(now, func(Time) { order = append(order, "inner") })
	})
	c.Advance(time.Second)
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v, want [outer inner] within one Advance", order)
	}
}

func TestStepStopsAtDeadline(t *testing.T) {
	c := New()
	fired := 0
	c.AfterFunc(1*time.Second, func(Time) { fired++ })
	step := c.StepFunc(3*time.Second, nil)
	if step != 1*time.Second {
		t.Fatalf("Step = %v, want 1s (stop at deadline)", step)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 after stepping onto deadline", fired)
	}
	step = c.StepFunc(3*time.Second, nil)
	if step != 3*time.Second {
		t.Fatalf("second Step = %v, want full 3s with no timers pending", step)
	}
	if c.Now() != Time(4*time.Second) {
		t.Fatalf("Now = %v, want 4s", c.Now())
	}
}

func TestStepFiresDeadlineAtCurrentInstant(t *testing.T) {
	c := New()
	fired := 0
	c.AtFunc(0, func(Time) { fired++ })
	if got := c.StepFunc(0, nil); got != 0 {
		t.Fatalf("Step(0) = %v, want 0", got)
	}
	if fired != 1 {
		t.Fatalf("due-now timer did not fire on Step; fired = %d", fired)
	}
}

func TestTickerFiresEveryPeriod(t *testing.T) {
	c := New()
	var at []Time
	tk := c.NewTicker(time.Second, func(now Time) { at = append(at, now) })
	c.Advance(3500 * time.Millisecond)
	if len(at) != 3 {
		t.Fatalf("ticker fired %d times in 3.5s, want 3 (at 1s,2s,3s): %v", len(at), at)
	}
	for i, ts := range at {
		if want := Time((i + 1) * int(time.Second)); ts != want {
			t.Fatalf("tick %d at %v, want %v", i, ts, want)
		}
	}
	tk.Stop()
	c.Advance(10 * time.Second)
	if len(at) != 3 {
		t.Fatalf("ticker fired after Stop: %v", at)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	c := New()
	n := 0
	var tk *Ticker
	tk = c.NewTicker(time.Second, func(Time) {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	c.Advance(10 * time.Second)
	if n != 2 {
		t.Fatalf("ticker fired %d times, want 2 (stopped from its own callback)", n)
	}
}

func TestNewTickerBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTicker(0) did not panic")
		}
	}()
	New().NewTicker(0, func(Time) {})
}

func TestTimeHelpers(t *testing.T) {
	ts := Time(1500 * time.Millisecond)
	if got := ts.Add(500 * time.Millisecond); got != Time(2*time.Second) {
		t.Fatalf("Add: got %v", got)
	}
	if got := ts.Sub(Time(time.Second)); got != 500*time.Millisecond {
		t.Fatalf("Sub: got %v", got)
	}
	if got := ts.Duration(); got != 1500*time.Millisecond {
		t.Fatalf("Duration: got %v", got)
	}
	if got := ts.String(); got != "1.500s" {
		t.Fatalf("String: got %q", got)
	}
}

// Property: however an advance is split into pieces, the set of fired timers
// and the final time are identical to a single big advance.
func TestPropertySplitAdvanceEquivalence(t *testing.T) {
	f := func(seed int64, deadlinesMs []uint16, splitsMs []uint16) bool {
		if len(deadlinesMs) > 64 || len(splitsMs) > 64 {
			return true
		}
		run := func(split bool) (Time, []int) {
			c := New()
			var fired []int
			for i, ms := range deadlinesMs {
				i := i
				c.AfterFunc(time.Duration(ms)*time.Millisecond, func(Time) { fired = append(fired, i) })
			}
			var total time.Duration
			for _, ms := range splitsMs {
				total += time.Duration(ms) * time.Millisecond
			}
			if split {
				for _, ms := range splitsMs {
					c.Advance(time.Duration(ms) * time.Millisecond)
				}
			} else {
				c.Advance(total)
			}
			return c.Now(), fired
		}
		nowA, firedA := run(false)
		nowB, firedB := run(true)
		if nowA != nowB || len(firedA) != len(firedB) {
			return false
		}
		for i := range firedA {
			if firedA[i] != firedB[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Step never overshoots its budget and never skips a deadline.
func TestPropertyStepRespectsDeadlines(t *testing.T) {
	if err := quick.Check(stepRespectsDeadlines, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStepRespectsDeadlinesRegressionSeed pins a seed that schedules a timer
// at t=0: with it still queued at the heap root, Step(257ms) used to run
// past the deadline at 94ms.
func TestStepRespectsDeadlinesRegressionSeed(t *testing.T) {
	if !stepRespectsDeadlines(-555191803277121380) {
		t.Fatal("Step skipped a pending deadline")
	}
}

// TestStepInsideCallbackStopsAtNextDeadline covers Step called from a timer
// callback: the firing timer's instant is the current time and Fire is
// guarded, so the clamp must look past it to the next future deadline.
func TestStepInsideCallbackStopsAtNextDeadline(t *testing.T) {
	c := New()
	c.AtFunc(10*Time(time.Millisecond), func(Time) {})
	var got time.Duration
	c.AtFunc(0, func(Time) { got = c.StepFunc(50*time.Millisecond, nil) })
	// Due at the same instant but queued behind the callback, so it is
	// still the heap root while the callback steps.
	c.AtFunc(0, func(Time) {})
	c.Fire()
	if got != 10*time.Millisecond {
		t.Fatalf("Step inside callback advanced %v, want 10ms", got)
	}
}

// stepRespectsDeadlines schedules random timers and takes random Steps,
// reporting whether every step stayed within its budget and stopped at or
// before every pending deadline.
func stepRespectsDeadlines(seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	c := New()
	deadlines := make(map[Time]bool)
	for i := 0; i < 20; i++ {
		d := time.Duration(rng.Intn(5000)) * time.Millisecond
		when := c.Now().Add(d)
		deadlines[when] = true
		c.AtFunc(when, func(Time) {})
	}
	for i := 0; i < 200; i++ {
		before := c.Now()
		budget := time.Duration(rng.Intn(700)) * time.Millisecond
		got := c.StepFunc(budget, nil)
		if got > budget || got < 0 {
			return false
		}
		// No pending deadline may lie strictly inside the step.
		for when := range deadlines {
			if when > before && when < before.Add(got) {
				return false
			}
		}
	}
	return true
}

func BenchmarkAdvanceWithTicker(b *testing.B) {
	c := New()
	n := 0
	c.NewTicker(time.Millisecond, func(Time) { n++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Advance(time.Millisecond)
	}
	_ = n
}

func TestPriorityOrdersSameDeadline(t *testing.T) {
	c := New()
	var order []string
	// Schedule in reverse-priority order to prove priority, not seq, wins.
	c.AtFuncPriority(Time(time.Second), PriorityDump, func(Time) { order = append(order, "dump") })
	c.AtFuncPriority(Time(time.Second), PriorityFlush, func(Time) { order = append(order, "flush") })
	c.AtFuncPriority(Time(time.Second), PrioritySampler, func(Time) { order = append(order, "sample") })
	c.Advance(time.Second)
	if len(order) != 3 || order[0] != "sample" || order[1] != "flush" || order[2] != "dump" {
		t.Fatalf("order = %v, want [sample flush dump]", order)
	}
}

func TestTickerPriorityStableAcrossReschedules(t *testing.T) {
	// A high-priority (late-firing) ticker created first must still fire
	// after a low-priority ticker at every shared deadline, even once
	// both have rescheduled themselves many times.
	c := New()
	var order []string
	c.NewTickerPriority(time.Second, PriorityDump, func(Time) { order = append(order, "dump") })
	c.NewTickerPriority(100*time.Millisecond, PrioritySampler, func(Time) { order = append(order, "s") })
	c.Advance(3 * time.Second)
	count := 0
	for i, ev := range order {
		if ev != "dump" {
			continue
		}
		count++
		// The event just before each dump must be the sampler tick
		// sharing its deadline.
		if i == 0 || order[i-1] != "s" {
			t.Fatalf("dump at index %d not preceded by same-instant sample: %v", i, order)
		}
	}
	if count != 3 {
		t.Fatalf("dumps = %d, want 3", count)
	}
}
