package gcov

import (
	"testing"
	"time"

	"github.com/incprof/incprof/internal/apps"
	_ "github.com/incprof/incprof/internal/apps/graph500"
	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/exec"
	"github.com/incprof/incprof/internal/mpi"
	"github.com/incprof/incprof/internal/phase"
)

func TestCollectorCountsCallsAndBlocks(t *testing.T) {
	rt := exec.New(nil)
	c := New(rt, time.Second)
	f := rt.Register("f")
	g := rt.Register("g")
	rt.Call(f, func() {
		rt.Work(500 * time.Millisecond) // several block bundles (split at ticks)
		rt.Call(g, func() { rt.Work(250 * time.Millisecond) })
		rt.Work(250 * time.Millisecond)
	})
	c.Close()
	snaps := c.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	s := snaps[0]
	if s.Calls["f"] != 1 || s.Calls["g"] != 1 {
		t.Fatalf("calls = %v", s.Calls)
	}
	if s.Blocks["f"] == 0 || s.Blocks["g"] == 0 {
		t.Fatalf("blocks = %v", s.Blocks)
	}
}

func TestCollectorDumpsPerInterval(t *testing.T) {
	rt := exec.New(nil)
	c := New(rt, time.Second)
	f := rt.Register("f")
	rt.Call(f, func() { rt.Work(3500 * time.Millisecond) })
	c.Close()
	snaps := c.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("snapshots = %d, want 4 (3 full + partial)", len(snaps))
	}
	// Counters are cumulative.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Blocks["f"] < snaps[i-1].Blocks["f"] {
			t.Fatal("block counter regressed")
		}
	}
}

func TestCloseIdempotentAndDetaches(t *testing.T) {
	rt := exec.New(nil)
	c := New(rt, time.Second)
	f := rt.Register("f")
	rt.Call(f, func() { rt.Work(time.Second) })
	c.Close()
	c.Close()
	n := len(c.Snapshots())
	rt.Call(f, func() { rt.Work(time.Second) })
	if len(c.Snapshots()) != n {
		t.Fatal("collector still collecting after Close")
	}
	if rt.NumListeners() != 0 {
		t.Fatal("collector still attached")
	}
}

func TestDifferenceProducesIntervalProfiles(t *testing.T) {
	rt := exec.New(nil)
	c := New(rt, time.Second)
	f := rt.Register("f")
	g := rt.Register("g")
	rt.Call(f, func() { rt.Work(2 * time.Second) })
	rt.Call(g, func() { rt.Work(1 * time.Second) })
	c.Close()
	profs, err := Difference(c.Snapshots())
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 3 {
		t.Fatalf("profiles = %d", len(profs))
	}
	// f active in intervals 0-1, g in interval 2.
	if profs[0].Self["f"] <= 0 || profs[0].Self["g"] > 0 {
		t.Fatalf("interval 0: %v", profs[0].Self)
	}
	if profs[2].Self["g"] <= 0 || profs[2].Self["f"] > 0 {
		t.Fatalf("interval 2: %v", profs[2].Self)
	}
	if profs[0].Calls["f"] != 1 || profs[1].Calls["f"] != 0 {
		t.Fatalf("call differencing: %v, %v", profs[0].Calls, profs[1].Calls)
	}
}

func TestDifferenceRejectsRegression(t *testing.T) {
	snaps := []*Snapshot{
		{Seq: 0, Timestamp: time.Second, Blocks: map[string]int64{"f": 10}, Calls: map[string]int64{}},
		{Seq: 1, Timestamp: 2 * time.Second, Blocks: map[string]int64{"f": 5}, Calls: map[string]int64{}},
	}
	if _, err := Difference(snaps); err == nil {
		t.Fatal("accepted regressing block counter")
	}
}

// Coverage-count features drive the same phase detection the paper runs on
// gprof time data — the footnote's gcov proof of concept, end to end.
func TestPhaseDetectionFromCoverageCounts(t *testing.T) {
	app, err := apps.New("graph500", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var collector *Collector
	err = mpi.Run(mpi.Config{Size: 1}, nil, func(r *mpi.Rank) {
		collector = New(r.Runtime(), time.Second)
		defer collector.Close()
		app.Run(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	profs, err := Difference(collector.Snapshots())
	if err != nil {
		t.Fatal(err)
	}
	det, err := phase.Detect(profs, phase.Options{
		Cluster: cluster.Options{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if det.K < 2 {
		t.Fatalf("K = %d from coverage counts, want phases", det.K)
	}
	found := map[string]bool{}
	for _, p := range det.Phases {
		for _, s := range p.Sites {
			found[s.Function] = true
		}
	}
	if !found["validate_bfs_result"] && !found["run_bfs"] {
		t.Fatalf("coverage-based detection missed the main functions: %v", found)
	}
}
