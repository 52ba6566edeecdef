package pipeline

import (
	"math"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/apps"
	_ "github.com/incprof/incprof/internal/apps/graph500"
	_ "github.com/incprof/incprof/internal/apps/minife"
	"github.com/incprof/incprof/internal/heartbeat"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/phase"
)

func mustApp(t *testing.T, name string, scale float64) apps.App {
	t.Helper()
	app, err := apps.New(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestCollectBaselineHasNoSnapshots(t *testing.T) {
	app := mustApp(t, "graph500", 0.05)
	res, err := Collect(app, CollectOptions{Profile: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dumps != 0 {
		t.Fatalf("baseline produced %d dumps", res.Dumps)
	}
	if res.VirtualRuntime <= 0 || res.HostDuration <= 0 {
		t.Fatalf("durations not recorded: %+v", res)
	}
	if _, err := Analyze(res, AnalyzeOptions{}); err == nil {
		t.Fatal("Analyze accepted a baseline run with no snapshots")
	}
}

func TestCollectProfiledProducesIntervalDumps(t *testing.T) {
	app := mustApp(t, "graph500", 0.05)
	res, err := Collect(app, CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	wantDumps := int(res.VirtualRuntime / time.Second)
	if len(res.Snapshots[0]) < wantDumps {
		t.Fatalf("rank 0 has %d dumps for a %v run", len(res.Snapshots[0]), res.VirtualRuntime)
	}
}

func TestAnalyzeFindsPhases(t *testing.T) {
	app := mustApp(t, "graph500", 0.1)
	res, err := Collect(app, CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(res, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Detection.K < 2 {
		t.Fatalf("K = %d, want >= 2 (generation vs search/validate)", an.Detection.K)
	}
	// The dominant paper sites must be discovered even at small scale.
	found := map[string]bool{}
	for _, p := range an.Detection.Phases {
		for _, s := range p.Sites {
			found[s.Function] = true
		}
	}
	for _, fn := range []string{"validate_bfs_result", "make_one_edge"} {
		if !found[fn] {
			t.Fatalf("site %s not discovered; found %v", fn, found)
		}
	}
}

func TestAnalyzeExcludesMPIByDefault(t *testing.T) {
	app := mustApp(t, "minife", 0.03)
	res, err := Collect(app, CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(res, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range an.Detection.Matrix.FuncNames {
		if fn == "MPI_Allreduce" || fn == "MPI_Barrier" {
			t.Fatalf("MPI pseudo-function %s in feature space", fn)
		}
	}
}

// A caller's own Exclude takes the place of the default MPI filter and drops
// exactly the functions it names.
func TestAnalyzeHonoursCallerExclude(t *testing.T) {
	app := mustApp(t, "minife", 0.03)
	res, err := Collect(app, CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Analyze(res, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	names := def.Detection.Matrix.FuncNames
	if len(names) < 2 {
		t.Fatalf("feature space %v too narrow to drop a function from", names)
	}
	dropped := names[0]
	var opts AnalyzeOptions
	opts.Phase.Features.Exclude = func(fn string) bool { return fn == dropped }
	an, err := Analyze(res, opts)
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, fn := range an.Detection.Matrix.FuncNames {
		kept[fn] = true
	}
	if kept[dropped] {
		t.Fatalf("caller-excluded %s still in feature space", dropped)
	}
	for _, fn := range names[1:] {
		if !kept[fn] {
			t.Fatalf("%s left the feature space, though only %s was excluded", fn, dropped)
		}
	}
}

func TestAnalyzeRankOutOfRange(t *testing.T) {
	app := mustApp(t, "graph500", 0.05)
	res, err := Collect(app, CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(res, AnalyzeOptions{Rank: 99}); err == nil {
		t.Fatal("accepted out-of-range rank")
	}
}

func TestRunWithHeartbeatsDiscoveredSites(t *testing.T) {
	app := mustApp(t, "graph500", 0.05)
	res, err := Collect(app, CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(res, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sites := heartbeat.SitesFromDetection(an.Detection)
	hb, err := RunWithHeartbeats(app, sites)
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Records) == 0 {
		t.Fatal("no heartbeat records")
	}
	var total int64
	for _, rec := range hb.Records {
		total += rec.Count
	}
	if total == 0 {
		t.Fatal("no beats recorded")
	}
}

func TestRunWithHeartbeatsManualSitesSymmetric(t *testing.T) {
	app := mustApp(t, "minife", 0.03)
	hb, err := RunWithHeartbeats(app, app.ManualSites())
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.PerRankBeats) != app.Meta().Ranks {
		t.Fatalf("per-rank beats = %v", hb.PerRankBeats)
	}
	// Symmetric application: all ranks beat a similar amount.
	first := hb.PerRankBeats[0]
	if first == 0 {
		t.Fatal("rank 0 recorded no beats")
	}
	for id, n := range hb.PerRankBeats {
		if n < first/2 || n > first*2 {
			t.Fatalf("rank %d beats %d wildly different from rank 0's %d", id, n, first)
		}
	}
}

func TestRunExperimentFull(t *testing.T) {
	app := mustApp(t, "graph500", 0.05)
	e, err := RunExperiment(app, ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Baseline == nil || e.Profiled == nil || e.Analysis == nil || e.Discovered == nil || e.Manual == nil {
		t.Fatalf("experiment incomplete: %+v", e)
	}
	if e.Analysis.Detection.K < 1 {
		t.Fatal("no phases")
	}
	// Virtual runtimes of baseline and profiled runs agree (profiling
	// does not perturb virtual time).
	if e.Baseline.VirtualRuntime != e.Profiled.VirtualRuntime {
		t.Fatalf("virtual runtime changed under profiling: %v vs %v",
			e.Baseline.VirtualRuntime, e.Profiled.VirtualRuntime)
	}
}

func TestRunExperimentSkips(t *testing.T) {
	app := mustApp(t, "graph500", 0.05)
	e, err := RunExperiment(app, ExperimentOptions{SkipBaseline: true, SkipManual: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.Baseline != nil || e.Manual != nil {
		t.Fatal("skips ignored")
	}
}

// The Table I prices are the calibration EXPERIMENTS.md documents: 8 µs per
// sample interrupt, 120 ns per mcount, 40 ms per dump, 350 ns per beat pair
// and 1 ms per interval flush.
func TestOverheadPricesEvents(t *testing.T) {
	prof := &CollectionResult{VirtualRuntime: 100 * time.Second, RepSamples: 10000, RepCalls: 1000000, RepDumps: 100}
	// 80 ms + 120 ms + 4 s over 100 s.
	if got := IncProfOverheadPct(prof); math.Abs(got-4.2) > 1e-9 {
		t.Fatalf("IncProfOverheadPct = %v, want 4.2", got)
	}
	hb := &HeartbeatResult{VirtualRuntime: 100 * time.Second, PerRankBeats: []int64{1000000, 7}}
	// Rank 0's 350 ms of beats + 100 flushes of 1 ms over 100 s.
	if got := HeartbeatOverheadPct(hb); math.Abs(got-0.45) > 1e-9 {
		t.Fatalf("HeartbeatOverheadPct = %v, want 0.45", got)
	}
	if IncProfOverheadPct(&CollectionResult{RepDumps: 1}) != 0 || HeartbeatOverheadPct(&HeartbeatResult{}) != 0 {
		t.Fatal("a run with no virtual runtime has no overhead")
	}
}

func TestDetectionBodyLoopAgainstCallData(t *testing.T) {
	// Cross-module invariant: a site tagged Body must have calls in at
	// least one interval of its phase; a Loop site must be active
	// without calls in at least one interval of its phase.
	app := mustApp(t, "graph500", 0.1)
	res, err := Collect(app, CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(res, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	profs := interval.Profiles(an.Profiles)
	for _, p := range an.Detection.Phases {
		for _, s := range p.Sites {
			sawBodyEvidence, sawLoopEvidence := false, false
			for _, idx := range p.Intervals {
				prof := profs[idx]
				if prof.Self[s.Function] <= 0 {
					continue
				}
				if prof.Calls[s.Function] > 0 {
					sawBodyEvidence = true
				} else {
					sawLoopEvidence = true
				}
			}
			switch s.Type {
			case phase.Body:
				if !sawBodyEvidence {
					t.Fatalf("body site %s never called in its phase", s.Function)
				}
			case phase.Loop:
				if !sawLoopEvidence {
					t.Fatalf("loop site %s always called in its phase", s.Function)
				}
			}
		}
	}
}

func TestCrossRankStatsSymmetric(t *testing.T) {
	app := mustApp(t, "minife", 0.03)
	res, err := Collect(app, CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := CrossRankStats(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no aggregated functions")
	}
	// Functions ordered by descending mean self time; cg_solve leads.
	if stats[0].Function != "cg_solve" {
		t.Fatalf("top function = %s", stats[0].Function)
	}
	if int(stats[0].Self.N()) != app.Meta().Ranks {
		t.Fatalf("ranks aggregated = %d", stats[0].Self.N())
	}
	// The paper's symmetric-parallel assumption: per-rank behavior
	// agrees closely.
	if score := SymmetryScore(stats); score > 0.05 {
		t.Fatalf("symmetry score = %v, want ~0 for a symmetric app", score)
	}
	for _, st := range stats[:3] {
		if st.CoV() > 0.1 {
			t.Fatalf("%s CoV = %v across ranks", st.Function, st.CoV())
		}
	}
}

func TestCrossRankStatsNoProfiledRanks(t *testing.T) {
	app := mustApp(t, "graph500", 0.05)
	res, err := Collect(app, CollectOptions{Profile: false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CrossRankStats(res); err == nil {
		t.Fatal("aggregated an unprofiled run")
	}
}

func TestAnalyzePromoteAndMerge(t *testing.T) {
	app := mustApp(t, "minife", 0.05)
	res, err := Collect(app, CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(res, AnalyzeOptions{PromoteSites: true})
	if err != nil {
		t.Fatal(err)
	}
	an.Detection.MergeDuplicatePhases()
	// The paper's §VI-B wish: the assembly phase site is
	// perform_elem_loop after promotion.
	foundPromoted := false
	for _, p := range an.Detection.Phases {
		for _, s := range p.Sites {
			if s.Function == "perform_elem_loop" && s.PromotedFrom == "sum_in_symm_elem_matrix" {
				foundPromoted = true
				if s.PhasePct == 0 {
					t.Fatal("promoted site lost its coverage accounting")
				}
			}
		}
	}
	if !foundPromoted {
		t.Fatalf("promotion did not lift the assembly site; phases: %+v", an.Detection.Phases)
	}
}

func TestRankAgreementSymmetricApp(t *testing.T) {
	app := mustApp(t, "minife", 0.03)
	res, err := Collect(app, CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	agreement, err := RankAgreement(res, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if agreement < 0.9 {
		t.Fatalf("cross-rank phase agreement = %v, want ~1 for a symmetric app", agreement)
	}
}

func TestRankAgreementNoRanks(t *testing.T) {
	app := mustApp(t, "graph500", 0.05)
	res, err := Collect(app, CollectOptions{Profile: false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RankAgreement(res, AnalyzeOptions{}); err == nil {
		t.Fatal("agreement computed with no profiled ranks")
	}
}

func TestInstrumentationDoesNotPerturbVirtualTime(t *testing.T) {
	// The observation machinery must be invisible to the application:
	// baseline, profiled, and heartbeat-instrumented runs of the same
	// deterministic app span identical virtual time.
	app := mustApp(t, "graph500", 0.05)
	e, err := RunExperiment(app, ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Baseline.VirtualRuntime != e.Profiled.VirtualRuntime {
		t.Fatalf("profiling changed virtual time: %v vs %v",
			e.Baseline.VirtualRuntime, e.Profiled.VirtualRuntime)
	}
	if e.Baseline.VirtualRuntime != e.Discovered.VirtualRuntime {
		t.Fatalf("heartbeats changed virtual time: %v vs %v",
			e.Baseline.VirtualRuntime, e.Discovered.VirtualRuntime)
	}
	if e.Baseline.VirtualRuntime != e.Manual.VirtualRuntime {
		t.Fatalf("manual heartbeats changed virtual time: %v vs %v",
			e.Baseline.VirtualRuntime, e.Manual.VirtualRuntime)
	}
}
