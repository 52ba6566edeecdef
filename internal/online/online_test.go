package online

import (
	"reflect"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/interval"
)

func prof(idx int, entries ...any) interval.Profile {
	p := interval.Profile{
		Index: idx,
		Self:  map[string]time.Duration{},
		Calls: map[string]int64{},
	}
	for i := 0; i < len(entries); i += 2 {
		fn := entries[i].(string)
		sec := entries[i+1].(float64)
		p.Self[fn] = time.Duration(sec * float64(time.Second))
	}
	return p
}

func TestTwoPhaseStream(t *testing.T) {
	tr := New(Options{})
	var events []Event
	for i := 0; i < 10; i++ {
		events = append(events, tr.Observe(prof(i, "init", 0.9, "aux", 0.1)))
	}
	for i := 10; i < 25; i++ {
		events = append(events, tr.Observe(prof(i, "solve", 1.0)))
	}
	if tr.Phases() != 2 {
		t.Fatalf("phases = %d, want 2", tr.Phases())
	}
	if !events[0].NewPhase {
		t.Fatal("first interval did not found a phase")
	}
	if !events[10].NewPhase || !events[10].Transition {
		t.Fatalf("transition interval event = %+v", events[10])
	}
	for i := 1; i < 10; i++ {
		if events[i].NewPhase || events[i].Transition {
			t.Fatalf("spurious event at %d: %+v", i, events[i])
		}
	}
	trans := tr.Transitions()
	if len(trans) != 1 || trans[0] != 10 {
		t.Fatalf("transitions = %v", trans)
	}
	sizes := tr.Sizes()
	if sizes[0] != 10 || sizes[1] != 15 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestCentroidDriftAbsorbsSlowChange(t *testing.T) {
	// A phase whose profile drifts slowly must not fragment.
	tr := New(Options{Threshold: 0.3, Alpha: 0.3})
	for i := 0; i < 40; i++ {
		share := 0.8 + float64(i)*0.004 // drifts 0.8 -> 0.96
		tr.Observe(prof(i, "compute", share, "comm", 1-share))
	}
	if got := tr.Phases(); got != 1 {
		t.Fatalf("slow drift fragmented into %d phases", got)
	}
}

func TestAbruptChangeFoundsPhase(t *testing.T) {
	tr := New(Options{})
	tr.Observe(prof(0, "a", 1.0))
	ev := tr.Observe(prof(1, "b", 1.0))
	if !ev.NewPhase {
		t.Fatalf("orthogonal profile did not found a phase: %+v", ev)
	}
}

func TestMaxPhasesCap(t *testing.T) {
	tr := New(Options{MaxPhases: 2})
	tr.Observe(prof(0, "a", 1.0))
	tr.Observe(prof(1, "b", 1.0))
	ev := tr.Observe(prof(2, "c", 1.0)) // would be a third phase
	if ev.NewPhase {
		t.Fatal("cap ignored")
	}
	if tr.Phases() != 2 {
		t.Fatalf("phases = %d", tr.Phases())
	}
}

func TestReturnToEarlierPhase(t *testing.T) {
	// A B A: the return to A must reuse phase 0, not found a third.
	tr := New(Options{})
	for i := 0; i < 5; i++ {
		tr.Observe(prof(i, "a", 1.0))
	}
	for i := 5; i < 10; i++ {
		tr.Observe(prof(i, "b", 1.0))
	}
	ev := tr.Observe(prof(10, "a", 1.0))
	if ev.NewPhase || ev.Phase != 0 {
		t.Fatalf("return to phase 0 misclassified: %+v", ev)
	}
	if !ev.Transition {
		t.Fatal("transition not reported")
	}
}

func TestExcludeFilters(t *testing.T) {
	tr := New(Options{Exclude: func(fn string) bool { return fn == "MPI_Barrier" }})
	tr.Observe(prof(0, "work", 0.5, "MPI_Barrier", 0.5))
	ev := tr.Observe(prof(1, "work", 0.5, "MPI_Barrier", 0.0))
	if ev.NewPhase {
		t.Fatal("excluded dimension caused fragmentation")
	}
}

func BenchmarkObserve(b *testing.B) {
	tr := New(Options{})
	p := prof(0, "a", 0.5, "b", 0.3, "c", 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(p)
	}
}

// BenchmarkObserveWide stresses the distance hot path on a profile with many
// active functions — the case the shared xmath padded-distance kernel must
// not regress relative to the old package-local loop.
func BenchmarkObserveWide(b *testing.B) {
	entries := make([]any, 0, 2*64)
	for i := 0; i < 64; i++ {
		entries = append(entries, "fn"+string(rune('a'+i%26))+string(rune('a'+i/26)), 1.0/64)
	}
	tr := New(Options{})
	p := prof(0, entries...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(p)
	}
}

// A negative Threshold is the sentinel for an exact-match-only tracker: any
// deviation from a known centroid founds a new phase, while exact repeats
// still join. Threshold 0 keeps the 0.35 default, so the zero value stays
// consistent with the rest of the repo.
func TestNegativeThresholdMeansExactMatchOnly(t *testing.T) {
	tr := New(Options{Threshold: -1})
	if got := tr.opts.Threshold; got != 0 {
		t.Fatalf("effective threshold = %v, want 0", got)
	}
	tr.Observe(prof(0, "init", 1.0))
	ev := tr.Observe(prof(1, "init", 1.0)) // exact repeat: joins
	if ev.NewPhase {
		t.Fatal("exact centroid match founded a new phase")
	}
	ev = tr.Observe(prof(2, "init", 1.0001)) // any deviation: new phase
	if !ev.NewPhase {
		t.Fatal("non-exact interval joined an exact-match-only tracker")
	}
	if tr.Phases() != 2 {
		t.Fatalf("phases = %d, want 2", tr.Phases())
	}
}

func TestZeroThresholdStillDefaults(t *testing.T) {
	tr := New(Options{})
	if got := tr.opts.Threshold; got != 0.35 {
		t.Fatalf("zero-value threshold = %v, want default 0.35", got)
	}
}

func TestObserveAllMatchesObserve(t *testing.T) {
	// ObserveAll is a loop over Observe: the events it returns, and the
	// ones its OnEvent handler sees, equal those of a tracker fed one
	// interval at a time, low-confidence labels included.
	run := []interval.Profile{
		prof(0, "init", 1.0),
		prof(1, "init", 0.9, "aux", 0.1),
		prof(2, "solve", 1.0),
		prof(3, "solve", 0.8, "init", 0.2),
		prof(4, "init", 1.0),
	}
	run[3].Repaired = true

	var one []Event
	single := New(Options{OnEvent: func(ev Event) { one = append(one, ev) }})
	for _, p := range run {
		single.Observe(p)
	}
	var seen []Event
	all := New(Options{OnEvent: func(ev Event) { seen = append(seen, ev) }})
	got := all.ObserveAll(run)

	if !reflect.DeepEqual(got, one) || !reflect.DeepEqual(seen, one) {
		t.Fatalf("ObserveAll events = %+v, handler saw %+v; Observe gave %+v", got, seen, one)
	}
	if !one[3].LowConfidence {
		t.Fatalf("repaired interval event = %+v, want low confidence", one[3])
	}
	if !reflect.DeepEqual(all.Assignments(), single.Assignments()) || !reflect.DeepEqual(all.Sizes(), single.Sizes()) {
		t.Fatalf("models differ: assignments %v vs %v, sizes %v vs %v",
			all.Assignments(), single.Assignments(), all.Sizes(), single.Sizes())
	}
}
