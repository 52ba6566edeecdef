package phase

import (
	"testing"
	"time"

	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/interval"
)

// mkProfile builds an interval profile from (fn, seconds, calls) triples.
func mkProfile(idx int, entries ...any) interval.Profile {
	p := interval.Profile{
		Index:     idx,
		Start:     time.Duration(idx) * time.Second,
		End:       time.Duration(idx+1) * time.Second,
		Self:      map[string]time.Duration{},
		ExactSelf: map[string]time.Duration{},
		Calls:     map[string]int64{},
	}
	for i := 0; i < len(entries); i += 3 {
		fn := entries[i].(string)
		sec := entries[i+1].(float64)
		calls := entries[i+2].(int)
		d := time.Duration(sec * float64(time.Second))
		p.Self[fn] = d
		p.ExactSelf[fn] = d
		if calls > 0 {
			p.Calls[fn] = int64(calls)
		}
	}
	return p
}

// twoPhaseWorkload: 10 intervals of "init" (called a few times per interval,
// with a chatty "aux" helper alongside) then 20 of "solve" (called once at
// the start of its phase, then running uninterrupted — a loop site).
func twoPhaseWorkload() []interval.Profile {
	var profs []interval.Profile
	for i := 0; i < 10; i++ {
		profs = append(profs, mkProfile(i, "init", 0.9, 3, "aux", 0.1, 500))
	}
	for i := 10; i < 30; i++ {
		if i == 10 {
			// Transition interval: solve is called here and shares
			// the interval with the tail of initialization.
			profs = append(profs, mkProfile(i, "solve", 0.7, 1, "aux", 0.3, 100))
			continue
		}
		profs = append(profs, mkProfile(i, "solve", 1.0, 0))
	}
	return profs
}

func TestDetectTwoPhases(t *testing.T) {
	det, err := Detect(twoPhaseWorkload(), Options{Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if det.K != 2 {
		t.Fatalf("K = %d, want 2; wcss = %v", det.K, det.WCSS)
	}
	if len(det.Phases) != 2 {
		t.Fatalf("phases = %d", len(det.Phases))
	}
	p0, p1 := det.Phases[0], det.Phases[1]
	// Temporal ordering: phase 0 is the init phase.
	if p0.ID != 0 || p0.Intervals[0] != 0 {
		t.Fatalf("phase 0 starts at interval %d", p0.Intervals[0])
	}
	if len(p0.Intervals) != 10 || len(p1.Intervals) != 20 {
		t.Fatalf("phase sizes = %d, %d", len(p0.Intervals), len(p1.Intervals))
	}
}

func TestAlgorithm1BodyVsLoopTagging(t *testing.T) {
	det, err := Detect(twoPhaseWorkload(), Options{Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var initSite, solveSite *Site
	for i := range det.Phases {
		for j := range det.Phases[i].Sites {
			s := &det.Phases[i].Sites[j]
			switch s.Function {
			case "init":
				initSite = s
			case "solve":
				solveSite = s
			}
		}
	}
	if initSite == nil || solveSite == nil {
		t.Fatalf("sites not found: %+v", det.Phases)
	}
	if initSite.Type != Body {
		t.Fatalf("init tagged %v, want body (called every interval)", initSite.Type)
	}
	if solveSite.Type != Loop {
		t.Fatalf("solve tagged %v, want loop (runs without calls in the representative intervals)", solveSite.Type)
	}
}

func TestAlgorithm1PrefersFewerCalls(t *testing.T) {
	// Both functions active in every interval; "worker" has few calls,
	// "getter" has thousands — the paper's utility-function avoidance.
	var profs []interval.Profile
	for i := 0; i < 10; i++ {
		profs = append(profs, mkProfile(i, "worker", 0.6, 2, "getter", 0.4, 5000))
	}
	det, err := Detect(profs, Options{Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if det.K != 1 {
		t.Fatalf("K = %d, want 1", det.K)
	}
	sites := det.Phases[0].Sites
	if len(sites) != 1 || sites[0].Function != "worker" {
		t.Fatalf("sites = %+v, want just worker", sites)
	}
	if sites[0].PhasePct != 100 || sites[0].AppPct != 100 {
		t.Fatalf("coverage = %v/%v, want 100/100", sites[0].PhasePct, sites[0].AppPct)
	}
}

func TestAlgorithm1RankBreaksCallTies(t *testing.T) {
	// Equal calls; "steady" is active in all intervals (rank 1), "flaky"
	// only in the centroid-nearest ones (lower rank). With equal calls,
	// the higher-rank function wins.
	var profs []interval.Profile
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			profs = append(profs, mkProfile(i, "steady", 0.5, 1, "flaky", 0.5, 1))
		} else {
			profs = append(profs, mkProfile(i, "steady", 0.5, 1, "other", 0.5, 1))
		}
	}
	det, err := Detect(profs, Options{KMax: 1, Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sites := det.Phases[0].Sites
	if len(sites) == 0 || sites[0].Function != "steady" {
		t.Fatalf("sites = %+v, want steady first (rank 1)", sites)
	}
}

func TestAlgorithm1CoverageThresholdSkipsOutliers(t *testing.T) {
	// 19 intervals dominated by "main"; 1 outlier interval where only
	// "rare" is active. With the default 95% threshold, the single
	// outlier (5%) is not given its own site.
	var profs []interval.Profile
	for i := 0; i < 19; i++ {
		profs = append(profs, mkProfile(i, "main", 1.0, 3))
	}
	profs = append(profs, mkProfile(19, "rare", 1.0, 1))
	det, err := Detect(profs, Options{KMax: 1, Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sites := det.Phases[0].Sites
	if len(sites) != 1 || sites[0].Function != "main" {
		t.Fatalf("sites = %+v, want only main (rare is an outlier under 95%% threshold)", sites)
	}
	// With a 100% threshold the outlier does get a site.
	det2, err := Detect(profs, Options{KMax: 1, CoverageThreshold: 1.0, Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(det2.Phases[0].Sites) != 2 {
		t.Fatalf("threshold=1.0 sites = %+v, want main and rare", det2.Phases[0].Sites)
	}
}

func TestAlgorithm1DedupesFunctionTypePairs(t *testing.T) {
	// The same function can be selected once as body and once as loop in
	// the same phase only via distinct (fn, type) pairs; identical pairs
	// must not repeat.
	var profs []interval.Profile
	for i := 0; i < 6; i++ {
		profs = append(profs, mkProfile(i, "f", 1.0, 1))
	}
	det, err := Detect(profs, Options{KMax: 1, CoverageThreshold: 1.0, Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(det.Phases[0].Sites); n != 1 {
		t.Fatalf("sites = %d, want 1 (deduped)", n)
	}
}

func TestSameFunctionDifferentTypesAcrossPhases(t *testing.T) {
	// Mimics Graph500's run_bfs: one phase of intervals where f is
	// called (body) and another where it continues running (loop).
	var profs []interval.Profile
	for i := 0; i < 10; i++ {
		// Called intervals also feature heavy helper activity,
		// separating them in feature space.
		profs = append(profs, mkProfile(2*i, "f", 0.3, 4, "helper", 0.7, 100))
		profs = append(profs, mkProfile(2*i+1, "f", 1.0, 0))
	}
	det, err := Detect(profs, Options{Cluster: cluster.Options{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if det.K < 2 {
		t.Fatalf("K = %d, want >= 2", det.K)
	}
	types := map[InstType]bool{}
	for _, p := range det.Phases {
		for _, s := range p.Sites {
			if s.Function == "f" {
				types[s.Type] = true
			}
		}
	}
	if !types[Loop] {
		t.Fatalf("expected f to appear as a loop site in the continuing phase; phases: %+v", det.Phases)
	}
}

func TestPhasePctPartitionsPhase(t *testing.T) {
	// Two sites within one phase: the credited percentages sum to <= 100
	// and cover the whole phase when the threshold is 1.0.
	var profs []interval.Profile
	for i := 0; i < 15; i++ {
		profs = append(profs, mkProfile(i, "a", 1.0, 1))
	}
	for i := 15; i < 20; i++ {
		profs = append(profs, mkProfile(i, "b", 1.0, 1))
	}
	det, err := Detect(profs, Options{KMax: 1, CoverageThreshold: 1.0, Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	p := det.Phases[0]
	var sum float64
	for _, s := range p.Sites {
		sum += s.PhasePct
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("PhasePct sum = %v, want 100", sum)
	}
	if cov := coverage(&p, profs); cov != 1.0 {
		t.Fatalf("Coverage = %v", cov)
	}
}

func TestAppPctSumsToPhaseShare(t *testing.T) {
	profs := twoPhaseWorkload()
	det, err := Detect(profs, Options{Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, p := range det.Phases {
		for _, s := range p.Sites {
			total += s.AppPct
		}
	}
	// All 30 intervals are covered (each phase is pure), so App% sums
	// to ~100 across all phases.
	if total < 95 || total > 100.1 {
		t.Fatalf("sum of AppPct = %v, want ~100", total)
	}
}

func TestDetectErrors(t *testing.T) {
	if _, err := Detect(nil, Options{}); err == nil {
		t.Fatal("accepted empty profiles")
	}
	empty := []interval.Profile{{Index: 0, Self: map[string]time.Duration{}}}
	if _, err := Detect(empty, Options{}); err == nil {
		t.Fatal("accepted all-idle profiles")
	}
}

func TestDetectDBSCAN(t *testing.T) {
	det, err := Detect(twoPhaseWorkload(), Options{Algorithm: DBSCANAlg})
	if err != nil {
		t.Fatal(err)
	}
	if det.K < 2 {
		t.Fatalf("DBSCAN K = %d, want >= 2 on clean two-phase data", det.K)
	}
	if len(det.WCSS) != 0 {
		t.Fatal("DBSCAN detection should not report a WCSS sweep")
	}
}

func TestDetectSilhouetteSelection(t *testing.T) {
	det, err := Detect(twoPhaseWorkload(), Options{Selection: Silhouette, Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if det.K != 2 {
		t.Fatalf("silhouette K = %d, want 2", det.K)
	}
}

func TestPhaseDuration(t *testing.T) {
	p := Phase{Intervals: []int{0, 1, 2}}
	if got := p.Duration(time.Second); got != 3*time.Second {
		t.Fatalf("Duration = %v", got)
	}
}

func TestStringers(t *testing.T) {
	if Body.String() != "body" || Loop.String() != "loop" {
		t.Fatal("InstType strings")
	}
	if Elbow.String() != "elbow" || Silhouette.String() != "silhouette" {
		t.Fatal("Selection strings")
	}
	if KMeansAlg.String() != "kmeans" || DBSCANAlg.String() != "dbscan" {
		t.Fatal("Algorithm strings")
	}
	if InstType(9).String() == "" || Selection(9).String() == "" || Algorithm(9).String() == "" {
		t.Fatal("unknown values must stringify")
	}
}

func TestCentroidDistanceOrdering(t *testing.T) {
	// The outlier interval within the phase must be processed last, so
	// the representative function gets selected first even though the
	// outlier's function would sort earlier alphabetically.
	var profs []interval.Profile
	for i := 0; i < 9; i++ {
		profs = append(profs, mkProfile(i, "zz_main", 1.0, 1))
	}
	// Outlier still in the same cluster (similar magnitude, different fn
	// forced into same cluster via KMax=1).
	profs = append(profs, mkProfile(9, "aa_rare", 1.0, 1))
	det, err := Detect(profs, Options{KMax: 1, CoverageThreshold: 1.0, Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sites := det.Phases[0].Sites
	if len(sites) != 2 || sites[0].Function != "zz_main" {
		t.Fatalf("sites = %+v, want zz_main selected first (centroid-nearest)", sites)
	}
}

func BenchmarkDetect60Intervals(b *testing.B) {
	profs := twoPhaseWorkload()
	for i := 0; i < 30; i++ {
		profs = append(profs, mkProfile(30+i, "post", 0.8, 2, "aux", 0.2, 9))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(profs, Options{Cluster: cluster.Options{Seed: uint64(i)}}); err != nil {
			b.Fatal(err)
		}
	}
}
