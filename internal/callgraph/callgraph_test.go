package callgraph

import (
	"testing"

	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
)

// miniFE-shaped arcs: main calls perform_elem_loop once, which calls
// sum_in_symm_elem_matrix per element.
func minifeArcs() []profile.Arc {
	return []profile.Arc{
		{Caller: "main", Callee: "perform_elem_loop", Count: 1},
		{Caller: "perform_elem_loop", Callee: "sum_in_symm_elem_matrix", Count: 3375},
		{Caller: "main", Callee: "cg_solve", Count: 1},
		{Caller: "cg_solve", Callee: "matvec", Count: 200},
		{Caller: "cg_solve", Callee: "dot", Count: 400},
		{Caller: "matvec", Callee: "dot", Count: 200}, // dot has two callers
	}
}

func TestFromArcsStructure(t *testing.T) {
	g := FromArcs(minifeArcs())
	if got := g.Node("sum_in_symm_elem_matrix").InCalls(); got != 3375 {
		t.Fatalf("InCalls = %d", got)
	}
	if got := g.Node("dot").InCalls(); got != 600 {
		t.Fatalf("dot InCalls = %d", got)
	}
	roots := g.Roots()
	if len(roots) != 1 || roots[0] != "main" {
		t.Fatalf("roots = %v", roots)
	}
	if g.Node("nonexistent") != nil {
		t.Fatal("Node invented a function")
	}
}

func TestDuplicateArcsAccumulate(t *testing.T) {
	g := FromArcs([]profile.Arc{
		{Caller: "a", Callee: "b", Count: 3},
		{Caller: "a", Callee: "b", Count: 4},
	})
	if got := g.Node("b").InCalls(); got != 7 {
		t.Fatalf("accumulated calls = %d", got)
	}
}

func TestUniqueCaller(t *testing.T) {
	g := FromArcs(minifeArcs())
	if caller, ok := g.UniqueCaller("sum_in_symm_elem_matrix"); !ok || caller != "perform_elem_loop" {
		t.Fatalf("UniqueCaller = %v, %v", caller, ok)
	}
	if _, ok := g.UniqueCaller("dot"); ok {
		t.Fatal("dot has two callers but UniqueCaller found one")
	}
	if _, ok := g.UniqueCaller("main"); ok {
		t.Fatal("root has a caller?")
	}
}

func TestPromoteClimbsUniqueChainToBelowMain(t *testing.T) {
	// The paper's MiniFE wish: sum_in_symm_elem_matrix should promote to
	// perform_elem_loop (the manual site), but not further to main.
	g := FromArcs(minifeArcs())
	got := g.Promote("sum_in_symm_elem_matrix", PromoteOptions{})
	if got != "perform_elem_loop" {
		t.Fatalf("Promote = %q, want perform_elem_loop", got)
	}
}

func TestPromoteStopsAtFanIn(t *testing.T) {
	g := FromArcs(minifeArcs())
	if got := g.Promote("dot", PromoteOptions{}); got != "dot" {
		t.Fatalf("promoted through fan-in: %q", got)
	}
}

func TestPromoteStopsAtHotCaller(t *testing.T) {
	// helper is called 1000x by worker, which driver calls workerCalls
	// times.
	arcs := func(workerCalls int64) []profile.Arc {
		return []profile.Arc{
			{Caller: "main", Callee: "driver", Count: 1},
			{Caller: "driver", Callee: "worker", Count: workerCalls},
			{Caller: "worker", Callee: "helper", Count: 1000},
		}
	}
	// Promoting to a busier parent would pick a worse site.
	if got := FromArcs(arcs(5000)).Promote("helper", PromoteOptions{}); got != "helper" {
		t.Fatalf("promoted to hotter caller: %q", got)
	}
	// The ratio bound is inclusive: a caller called exactly as often as
	// the site is its equal, one call more is a busier parent.
	if got := FromArcs(arcs(1000)).Promote("helper", PromoteOptions{}); got != "driver" {
		t.Fatalf("equal-rate caller refused: %q", got)
	}
	if got := FromArcs(arcs(1001)).Promote("helper", PromoteOptions{}); got != "helper" {
		t.Fatalf("busier caller accepted: %q", got)
	}
}

func TestPromoteRespectsMaxHops(t *testing.T) {
	g := FromArcs([]profile.Arc{
		{Caller: "root", Callee: "a", Count: 1},
		{Caller: "a", Callee: "b", Count: 1},
		{Caller: "b", Callee: "c", Count: 1},
		{Caller: "c", Callee: "d", Count: 1},
		{Caller: "d", Callee: "e", Count: 1},
	})
	// e is four hops below a; the walk stops after three.
	if got := g.Promote("e", PromoteOptions{}); got != "b" {
		t.Fatalf("walk from e -> %q, want b after 3 hops", got)
	}
	if got := g.Promote("c", PromoteOptions{}); got != "a" {
		t.Fatalf("full climb stops below root: %q", got)
	}
}

func TestPromoteExclude(t *testing.T) {
	g := FromArcs(minifeArcs())
	got := g.Promote("sum_in_symm_elem_matrix", PromoteOptions{
		Exclude: func(n string) bool { return n == "perform_elem_loop" },
	})
	if got != "sum_in_symm_elem_matrix" {
		t.Fatalf("excluded target still selected: %q", got)
	}
}

func TestPromoteUnknownFunction(t *testing.T) {
	g := FromArcs(minifeArcs())
	if got := g.Promote("mystery", PromoteOptions{}); got != "mystery" {
		t.Fatalf("unknown function changed: %q", got)
	}
}

func TestPromoteDetection(t *testing.T) {
	g := FromArcs(minifeArcs())
	det := &phase.Detection{
		Phases: []phase.Phase{
			{ID: 0, Sites: []phase.Site{
				{Function: "sum_in_symm_elem_matrix", Type: phase.Body, PhasePct: 100, AppPct: 20},
			}},
			{ID: 1, Sites: []phase.Site{
				{Function: "matvec", Type: phase.Loop, PhasePct: 60, AppPct: 30},
				{Function: "dot", Type: phase.Loop, PhasePct: 40, AppPct: 10},
			}},
		},
	}
	n := PromoteDetection(det, g, PromoteOptions{})
	if n != 2 {
		t.Fatalf("promoted = %d, want 2 (sum_in_symm and matvec)", n)
	}
	s := det.Phases[0].Sites[0]
	if s.Function != "perform_elem_loop" || s.PromotedFrom != "sum_in_symm_elem_matrix" {
		t.Fatalf("site = %+v", s)
	}
	// matvec's unique, less-frequently-called caller is cg_solve, so it
	// promotes; dot has two callers and stays.
	if got := det.Phases[1].Sites[0]; got.Function != "cg_solve" || got.PromotedFrom != "matvec" {
		t.Fatalf("matvec site = %+v", got)
	}
	if got := det.Phases[1].Sites[1]; got.Function != "dot" || got.PromotedFrom != "" {
		t.Fatalf("dot site = %+v", got)
	}
}

func TestPromoteDetectionMergesCollidingSites(t *testing.T) {
	// Two sites in one phase that promote to the same (fn, type) merge,
	// pooling their coverage.
	g := FromArcs([]profile.Arc{
		{Caller: "main", Callee: "parent", Count: 1},
		{Caller: "parent", Callee: "kidA", Count: 2},
		{Caller: "parent", Callee: "kidB", Count: 2},
	})
	det := &phase.Detection{Phases: []phase.Phase{{
		ID: 0,
		Sites: []phase.Site{
			{Function: "kidA", Type: phase.Body, PhasePct: 50, AppPct: 25},
			{Function: "kidB", Type: phase.Body, PhasePct: 30, AppPct: 15},
		},
	}}}
	PromoteDetection(det, g, PromoteOptions{})
	sites := det.Phases[0].Sites
	if len(sites) != 1 {
		t.Fatalf("sites = %+v, want merged single site", sites)
	}
	if sites[0].Function != "parent" || sites[0].PhasePct != 80 || sites[0].AppPct != 40 {
		t.Fatalf("merged site = %+v", sites[0])
	}
}
