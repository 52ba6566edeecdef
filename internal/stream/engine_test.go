package stream_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/apps"
	_ "github.com/incprof/incprof/internal/apps/gadget"
	_ "github.com/incprof/incprof/internal/apps/graph500"
	_ "github.com/incprof/incprof/internal/apps/lammps"
	_ "github.com/incprof/incprof/internal/apps/miniamr"
	_ "github.com/incprof/incprof/internal/apps/minife"
	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/mpi"
	"github.com/incprof/incprof/internal/online"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/pipeline"
	"github.com/incprof/incprof/internal/stream"
)

// flatten serializes the comparable surface of a detection (Options carries
// func fields and cannot marshal). Byte equality of two flattenings is the
// PR's equivalence contract.
func flatten(t *testing.T, det *phase.Detection, gaps []interval.Gap) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		K        int
		WCSS     []float64
		Phases   []phase.Phase
		Matrix   interval.Matrix
		Profiles []interval.Profile
		Gaps     []interval.Gap
	}{det.K, det.WCSS, det.Phases, det.Matrix, det.Profiles, gaps})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func collect(t *testing.T, name string) []*profile.Sample {
	t.Helper()
	app, err := apps.New(name, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Snapshots[0]
}

func baseOpts() phase.Options {
	return phase.Options{
		Features: interval.FeatureOptions{Exclude: mpi.IsMPIFunc},
		Cluster:  cluster.Options{Seed: 7},
	}
}

// The tentpole contract: an engine fed one snapshot at a time — with live
// labeling on and periodic refreshes rebuilding the model mid-run — finishes with a detection byte-identical to the legacy batch
// composition (Difference + Detect) for every application.
func TestEngineFinalMatchesBatchAcrossApps(t *testing.T) {
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			snaps := collect(t, name)
			popts := baseOpts()

			profs, err := interval.Difference(snaps)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := phase.Detect(profs, popts)
			if err != nil {
				t.Fatal(err)
			}

			labels := 0
			refreshes := 0
			eng := stream.New(stream.Options{
				Phase:        popts,
				RefreshEvery: 7,
				OnLabel:      func(online.Event) { labels++ },
				OnRefresh:    func(stream.Refresh) { refreshes++ },
			})
			for _, s := range snaps {
				if err := eng.Emit(s); err != nil {
					t.Fatal(err)
				}
			}
			r, err := eng.Finish()
			if err != nil {
				t.Fatal(err)
			}

			if got, want := flatten(t, r.Detection, r.Gaps), flatten(t, batch, nil); !bytes.Equal(got, want) {
				t.Fatalf("streaming analysis diverged from batch (%d vs %d bytes)", len(got), len(want))
			}
			if labels != len(profs) {
				t.Fatalf("live labels = %d, want one per interval (%d)", labels, len(profs))
			}
			if wantMin := len(profs)/7 + 1; refreshes < wantMin {
				t.Fatalf("refreshes = %d, want >= %d", refreshes, wantMin)
			}
		})
	}
}

// Robust mode: the engine's repairs and final model match the batch robust
// path exactly, gaps included, on adversarial fault patterns.
func TestEngineRobustMatchesBatchOnFaultyStreams(t *testing.T) {
	popts := baseOpts()
	for seed := int64(1); seed <= 8; seed++ {
		snaps := faultySnaps(seed, 50)
		rres, err := interval.DifferenceRobust(snaps, interval.RobustOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		batch, err := phase.Detect(rres.Profiles, popts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		eng := stream.New(stream.Options{Robust: true, Phase: popts, RefreshEvery: 11})
		for _, s := range snaps {
			if err := eng.Emit(s); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		r, err := eng.Finish()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := flatten(t, r.Detection, r.Gaps), flatten(t, batch, rres.Gaps); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: robust streaming analysis diverged from batch", seed)
		}
	}
}

// The engine's result is invariant under the clustering worker-pool size,
// like every other analysis entry point in the repo.
func TestEngineParallelismInvariance(t *testing.T) {
	snaps := collect(t, "graph500")
	run := func(parallelism int) []byte {
		popts := baseOpts()
		popts.Cluster.Parallelism = parallelism
		eng := stream.New(stream.Options{Phase: popts, RefreshEvery: 5})
		for _, s := range snaps {
			if err := eng.Emit(s); err != nil {
				t.Fatal(err)
			}
		}
		r, err := eng.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return flatten(t, r.Detection, r.Gaps)
	}
	if !bytes.Equal(run(1), run(8)) {
		t.Fatal("engine result depends on Parallelism")
	}
}

// With refreshes off, the engine's live labels are exactly the tracker's
// ObserveAll over the same profiles — including the low-confidence marks on
// repaired intervals, the PR 2 contract surfaced through the stream stage.
func TestEngineLabelsMatchTrackerIncludingLowConfidence(t *testing.T) {
	period := 10 * time.Millisecond
	snaps := []*profile.Sample{
		snap(0, time.Second, period, map[string][2]int64{"a": {100, 10}}),
		// Seqs 1-2 lost: split repair synthesizes low-confidence intervals.
		snap(3, 4*time.Second, period, map[string][2]int64{"a": {400, 40}}),
		snap(4, 5*time.Second, period, map[string][2]int64{"a": {500, 50}}),
	}
	rres, err := interval.DifferenceRobust(snaps, interval.RobustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rres.Repaired() == 0 {
		t.Fatal("test premise broken: no repaired profiles")
	}
	want := online.New(online.Options{}).ObserveAll(rres.Profiles)

	var got []online.Event
	eng := stream.New(stream.Options{
		Robust:  true,
		Phase:   baseOpts(),
		OnLabel: func(ev online.Event) { got = append(got, ev) },
	})
	for _, s := range snaps {
		if err := eng.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine labels diverge from tracker:\n got %+v\nwant %+v", got, want)
	}
	lowconf := 0
	for _, ev := range got {
		if ev.LowConfidence {
			lowconf++
		}
	}
	if lowconf != rres.Repaired() {
		t.Fatalf("lowconf labels = %d, want %d (one per repaired interval)", lowconf, rres.Repaired())
	}
}

// phaseSnaps synthesizes a run with two cleanly-separated phases: "init"
// dominates the first 10 intervals, "solve" the rest.
func phaseSnaps(n int) []*profile.Sample {
	period := 10 * time.Millisecond
	var out []*profile.Sample
	initS, solveS := int64(0), int64(0)
	for i := 0; i < n; i++ {
		if i < 10 {
			initS += 100
		} else {
			solveS += 200
		}
		out = append(out, snap(i, time.Duration(i+1)*time.Second, period,
			map[string][2]int64{"init": {initS, int64(i + 1)}, "solve": {solveS, int64(i + 1)}}))
	}
	return out
}

// checkRefreshesMatchDetect feeds snaps through an engine refreshing every
// `every` intervals and demands that each intermediate refresh's detection
// equal phase.DetectMatrix over the same prefix of the batch profiles, with
// the matrix built by the batch FeaturesCSR: a live refresh is the batch
// analysis of the run so far, nothing else. It returns the number of
// intermediate refreshes compared.
func checkRefreshesMatchDetect(t *testing.T, snaps []*profile.Sample, popts phase.Options, every int) int {
	t.Helper()
	profs, err := interval.Difference(snaps)
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	eng := stream.New(stream.Options{
		Phase:        popts,
		RefreshEvery: every,
		OnLabel:      func(online.Event) {},
		OnRefresh: func(r stream.Refresh) {
			if r.Final {
				return
			}
			prefix := profs[:r.Intervals]
			want, err := phase.DetectMatrix(prefix, interval.FeaturesCSR(prefix, popts.Features), popts)
			if err != nil {
				t.Fatalf("refresh %d: %v", r.Index, err)
			}
			if r.K != want.K || !bytes.Equal(flatten(t, r.Detection, nil), flatten(t, want, nil)) {
				t.Fatalf("refresh %d over %d intervals differs from DetectMatrix over the prefix (k=%d, want %d)",
					r.Index, r.Intervals, r.K, want.K)
			}
			compared++
		},
	})
	for _, s := range snaps {
		if err := eng.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	return compared
}

// Every intermediate refresh is DetectMatrix over the prefix it covers, on
// a synthetic two-phase run and on every fixture application at full scale
// (the collect fixtures' scale under -short), serial and parallel, under
// both k-selection methods.
func TestEngineRefreshesMatchDetectOnPrefix(t *testing.T) {
	scale := 1.0
	if testing.Short() {
		scale = 0.12
	}
	inputs := map[string][]*profile.Sample{"phaseSnaps": phaseSnaps(30)}
	for _, name := range apps.Names() {
		app, err := apps.New(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		inputs[name] = res.Snapshots[0]
	}
	for name, snaps := range inputs {
		for _, sel := range []phase.Selection{phase.Elbow, phase.Silhouette} {
			for _, par := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/parallel=%d", name, sel, par), func(t *testing.T) {
					popts := baseOpts()
					popts.Selection = sel
					popts.Cluster.Parallelism = par
					if n := checkRefreshesMatchDetect(t, snaps, popts, 10); n == 0 {
						t.Fatal("no intermediate refresh ran")
					}
				})
			}
		}
	}
}

// FuzzRefreshMatchesDetect checks the same contract on small random phase
// streams: a few functions whose per-interval shares switch between random
// phases, refreshed every 1 to 8 intervals.
func FuzzRefreshMatchesDetect(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3))
	f.Add(int64(7), uint8(40), uint8(0))
	f.Add(int64(42), uint8(9), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, n, every uint8) {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"init", "solve", "exchange", "io"}
		phases := 1 + rng.Intn(4)
		shares := make([][]int64, phases)
		for p := range shares {
			shares[p] = make([]int64, len(names))
			for j := range names {
				if rng.Intn(2) == 0 {
					shares[p][j] = int64(rng.Intn(50))
				}
			}
		}
		period := 10 * time.Millisecond
		cum := map[string][2]int64{}
		var snaps []*profile.Sample
		cur := 0
		for i := 0; i < 2+int(n)%40; i++ {
			if rng.Intn(4) == 0 {
				cur = rng.Intn(phases)
			}
			for j, name := range names {
				c := cum[name]
				c[0] += shares[cur][j] + int64(rng.Intn(3))
				c[1]++
				cum[name] = c
			}
			snaps = append(snaps, snap(i, time.Duration(i+1)*time.Second, period, cloneCounters(cum)))
		}
		checkRefreshesMatchDetect(t, snaps, baseOpts(), 1+int(every)%8)
	})
}

// Last exposes the live model between refreshes, before the stream ends.
func TestEngineLastGivesLiveDetectionMidRun(t *testing.T) {
	eng := stream.New(stream.Options{Phase: baseOpts(), RefreshEvery: 5})
	snaps := phaseSnaps(12)
	for i, s := range snaps {
		if err := eng.Emit(s); err != nil {
			t.Fatal(err)
		}
		if i == 7 && eng.Last() == nil {
			t.Fatal("no live detection after first refresh")
		}
	}
	if eng.Last() == nil || len(eng.Last().Phases) == 0 {
		t.Fatal("live detection empty")
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
}

// Flush is idempotent and Finish after Flush returns the same result.
func TestEngineFlushIdempotent(t *testing.T) {
	eng := stream.New(stream.Options{Phase: baseOpts()})
	for _, s := range phaseSnaps(6) {
		if err := eng.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	r1, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Detection != r2.Detection || r1.Refreshes != r2.Refreshes {
		t.Fatal("Finish not stable after Flush")
	}
}

// An empty robust stream fails with the batch path's error.
func TestEngineEmptyRobustStreamErrors(t *testing.T) {
	eng := stream.New(stream.Options{Robust: true, Phase: baseOpts()})
	if _, err := eng.Finish(); err == nil {
		t.Fatal("empty robust stream did not error")
	}
}
