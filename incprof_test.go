package incprof_test

import (
	"testing"
	"time"

	incprof "github.com/incprof/incprof"
)

// TestPublicAPIEndToEnd drives the full public surface the way the README's
// quickstart does: instrument a toy two-phase workload, collect interval
// snapshots, detect phases, select sites, and re-run with heartbeats.
func TestPublicAPIEndToEnd(t *testing.T) {
	runWorkload := func(rt *incprof.Runtime) {
		main := rt.Register("main")
		step := rt.Register("step")
		solve := rt.Register("solve")
		rt.Call(main, func() {
			for i := 0; i < 41; i++ {
				rt.Call(step, func() { rt.Work(250 * time.Millisecond) })
			}
			rt.Call(solve, func() { rt.Work(12 * time.Second) })
		})
	}

	// Collection.
	rt := incprof.NewRuntime(nil)
	prof := incprof.NewProfiler(rt, 0)
	col := incprof.NewCollector(rt, prof, incprof.CollectorOptions{})
	runWorkload(rt)
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := col.Store().Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 23 {
		t.Fatalf("snapshots = %d, want 23 (10.25s of steps + 12s solve)", len(snaps))
	}

	// Analysis.
	profiles, err := incprof.DifferenceSnapshots(snaps)
	if err != nil {
		t.Fatal(err)
	}
	det, err := incprof.Detect(profiles, incprof.DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(det.Phases))
	}
	var fns []string
	var types []incprof.InstType
	for _, p := range det.Phases {
		for _, s := range p.Sites {
			fns = append(fns, s.Function)
			types = append(types, s.Type)
		}
	}
	if len(fns) != 2 || fns[0] != "step" || fns[1] != "solve" {
		t.Fatalf("sites = %v", fns)
	}
	if types[0] != incprof.Body || types[1] != incprof.Loop {
		t.Fatalf("types = %v, want [body loop]", types)
	}

	// Heartbeat re-run on the discovered sites.
	sites := incprof.SitesFromDetection(det)
	rt2 := incprof.NewRuntime(nil)
	sink := &recordingSink{}
	ekg := incprof.NewEKG(incprof.EKGOptions{Clock: rt2.Clock(), Sinks: []incprof.HeartbeatSink{sink}})
	incprof.Instrument(rt2, ekg, sites, 0)
	runWorkload(rt2)
	if err := ekg.Close(); err != nil {
		t.Fatal(err)
	}
	var stepBeats, solveBeats int64
	for _, r := range sink.recs {
		switch r.HB {
		case sites[0].ID:
			stepBeats += r.Count
		case sites[1].ID:
			solveBeats += r.Count
		}
	}
	if stepBeats != 41 {
		t.Fatalf("step beats = %d, want 41", stepBeats)
	}
	if solveBeats != 120 { // 12s of loop beats at the default 100ms
		t.Fatalf("solve beats = %d, want 120", solveBeats)
	}
}

type recordingSink struct {
	recs []incprof.HeartbeatRecord
}

func (s *recordingSink) Emit(recs []incprof.HeartbeatRecord) error {
	s.recs = append(s.recs, recs...)
	return nil
}

func TestFeatureMatrixExposed(t *testing.T) {
	profiles := []incprof.IntervalProfile{
		{Index: 0, Self: map[string]time.Duration{"f": time.Second}},
	}
	m := incprof.Features(profiles, incprof.FeatureOptions{})
	if m.Dims() != 1 || m.FuncNames[0] != "f" {
		t.Fatalf("matrix = %+v", m)
	}
}

func TestDirStoreExposed(t *testing.T) {
	dir := t.TempDir()
	st, err := incprof.NewDirStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := incprof.NewRuntime(incprof.NewClock())
	prof := incprof.NewProfiler(rt, 0)
	col := incprof.NewCollector(rt, prof, incprof.CollectorOptions{Store: st})
	f := rt.Register("f")
	rt.Call(f, func() { rt.Work(3 * time.Second) })
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
}

// TestClusteringValidatesOutsideInput: the [][]float64 clustering entries
// reject malformed rows and labels with an error instead of panicking inside
// the worker pool or silently misreading ragged rows once packed.
func TestClusteringValidatesOutsideInput(t *testing.T) {
	ragged := [][]float64{{1, 2}, {3}}
	if _, err := incprof.SweepKMeans(ragged, 4, incprof.ClusterOptions{Seed: 1}); err == nil {
		t.Fatal("SweepKMeans accepted ragged input")
	}
	points := [][]float64{{0, 0}, {0, 1}, {5, 5}, {5, 6}}
	for name, tc := range map[string]struct {
		points [][]float64
		assign []int
	}{
		"ragged rows":    {ragged, []int{0, 1}},
		"label count":    {points, []int{0, 0, 1}},
		"negative label": {points, []int{0, -1, 1, 1}},
		"label >= k":     {points, []int{0, 0, 1, 2}},
	} {
		if _, err := incprof.MeanSilhouette(tc.points, tc.assign, 2, 1); err == nil {
			t.Errorf("%s: MeanSilhouette accepted bad input", name)
		}
	}
	results, err := incprof.SweepKMeans(points, 2, incprof.ClusterOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := incprof.MeanSilhouette(points, results[1].Assign, 2, 1); err != nil || s <= 0.5 {
		t.Fatalf("MeanSilhouette on two clear pairs = %v, %v", s, err)
	}
}
