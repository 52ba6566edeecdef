package faults

import (
	"net"
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/ldms"
	"github.com/incprof/incprof/internal/profile"
)

// fsnap builds a minimal cumulative snapshot for injector tests.
func fsnap(seq int) *profile.Sample {
	cum := int64((seq + 1) * 100)
	return &profile.Sample{
		Seq:          seq,
		Timestamp:    time.Duration(seq+1) * time.Second,
		SamplePeriod: 10 * time.Millisecond,
		Funcs: []profile.FuncRecord{{
			Name: "f", Samples: cum, SelfTime: time.Duration(cum) * 10 * time.Millisecond, Calls: cum,
		}},
	}
}

func TestDecideIsPureAndOrderIndependent(t *testing.T) {
	p := Plan{Seed: 42, Drop: 0.5}
	type coord struct {
		kind      Kind
		rank, seq int
	}
	coords := []coord{
		{KindDrop, 0, 0}, {KindDrop, 0, 1}, {KindDrop, 3, 1},
		{KindDuplicate, 0, 1}, {KindSampleError, 2, 7},
	}
	forward := make([]bool, len(coords))
	for i, c := range coords {
		forward[i] = p.decide(c.kind, c.rank, c.seq, 0.5)
	}
	// Re-evaluate in reverse order: outcomes must not depend on call order.
	for i := len(coords) - 1; i >= 0; i-- {
		c := coords[i]
		if got := p.decide(c.kind, c.rank, c.seq, 0.5); got != forward[i] {
			t.Fatalf("decide(%v,%d,%d) changed with call order", c.kind, c.rank, c.seq)
		}
	}
}

func TestDecideStreamsAreIndependentAcrossCoordinates(t *testing.T) {
	p := Plan{Seed: 7}
	n := 4000
	// If kind/rank/seq mixing were weak (e.g. xor of products), sibling
	// streams would be correlated. Check marginal rates per stream instead
	// of exact independence: each should be near the probability.
	for _, kind := range []Kind{KindDrop, KindDuplicate, KindSampleError} {
		for rank := 0; rank < 2; rank++ {
			hits := 0
			for seq := 0; seq < n; seq++ {
				if p.decide(kind, rank, seq, 0.3) {
					hits++
				}
			}
			rate := float64(hits) / float64(n)
			if rate < 0.25 || rate > 0.35 {
				t.Fatalf("stream (%v, rank %d) rate = %.3f, want ~0.30", kind, rank, rate)
			}
		}
	}
}

func TestDecideProbabilityEdges(t *testing.T) {
	p := Plan{Seed: 1}
	for seq := 0; seq < 100; seq++ {
		if p.decide(KindDrop, 0, seq, 0) {
			t.Fatal("prob 0 fired")
		}
		if !p.decide(KindDrop, 0, seq, 1) {
			t.Fatal("prob 1 did not fire")
		}
	}
}

// storeN pushes n snapshots through a fault store over a MemStore and
// returns the surviving Seq numbers plus the store.
func storeN(t *testing.T, plan Plan, rank, n int) ([]int, *Store) {
	t.Helper()
	fs := NewStore(incprof.NewMemStore(), plan, rank)
	for i := 0; i < n; i++ {
		if err := fs.Put(fsnap(i)); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := fs.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]int, len(snaps))
	for i, s := range snaps {
		seqs[i] = s.Seq
	}
	return seqs, fs
}

func TestStoreDropsAreSeedDeterministic(t *testing.T) {
	plan := Plan{Seed: 99, Drop: 0.25}
	a, fsA := storeN(t, plan, 0, 200)
	b, fsB := storeN(t, plan, 0, 200)
	if len(a) != len(b) {
		t.Fatalf("two identical runs kept %d vs %d dumps", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if fsA.Dropped() == 0 || fsA.Dropped() != fsB.Dropped() {
		t.Fatalf("dropped = %d vs %d, want equal and nonzero", fsA.Dropped(), fsB.Dropped())
	}
	// A different rank sees a different fault stream from the same plan.
	c, _ := storeN(t, plan, 1, 200)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("rank 0 and rank 1 saw identical drop patterns")
	}
}

func TestStoreDuplicates(t *testing.T) {
	seqs, fs := storeN(t, Plan{Seed: 5, Duplicate: 1}, 0, 10)
	if len(seqs) != 20 {
		t.Fatalf("kept %d dumps, want 20 (each stored twice)", len(seqs))
	}
	if fs.Duplicated() != 10 {
		t.Fatalf("Duplicated() = %d, want 10", fs.Duplicated())
	}
	for i := 0; i < 10; i++ {
		if seqs[2*i] != i || seqs[2*i+1] != i {
			t.Fatalf("seqs = %v, want every seq twice", seqs)
		}
	}
}

func TestStoreRankStopSilencesOneRank(t *testing.T) {
	plan := Plan{Seed: 3, StopRank: 1, StopAfter: 3}
	kept0, fs0 := storeN(t, plan, 0, 10)
	kept1, fs1 := storeN(t, plan, 1, 10)
	if len(kept0) != 10 || fs0.Stopped() {
		t.Fatalf("rank 0 affected by rank 1's stop: kept %d", len(kept0))
	}
	if len(kept1) != 3 || !fs1.Stopped() {
		t.Fatalf("rank 1 kept %d dumps after StopAfter=3, want 3", len(kept1))
	}
	if fs1.Dropped() != 7 {
		t.Fatalf("rank 1 Dropped() = %d, want 7", fs1.Dropped())
	}
}

func TestStoreTruncateDegradesToDropWithoutFiles(t *testing.T) {
	seqs, fs := storeN(t, Plan{Seed: 8, Truncate: 1}, 0, 5)
	if len(seqs) != 0 || fs.Dropped() != 5 || fs.Truncated() != 0 {
		t.Fatalf("MemStore truncate: kept=%d dropped=%d truncated=%d, want 0/5/0",
			len(seqs), fs.Dropped(), fs.Truncated())
	}
}

func TestStoreTruncateCorruptsDirStoreFiles(t *testing.T) {
	inner, err := incprof.NewDirStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewStore(inner, Plan{Seed: 8, Truncate: 1}, 0)
	for i := 0; i < 4; i++ {
		if err := fs.Put(fsnap(i)); err != nil {
			t.Fatal(err)
		}
	}
	if fs.Truncated() != 4 {
		t.Fatalf("Truncated() = %d, want 4", fs.Truncated())
	}
	if _, err := inner.Snapshots(); err == nil {
		t.Fatal("strict load accepted truncated dumps")
	}
	res, err := incprof.ReadDir(inner.Dir(), discard{}, incprof.TailOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != 0 || len(res.Skipped) != 4 {
		t.Fatalf("salvage: loaded=%d skipped=%d, want 0/4", res.Emitted, len(res.Skipped))
	}
}

func TestFaultedStreamSurvivesRobustDifferencing(t *testing.T) {
	// End-to-end over the degraded path: inject 20% drops, then confirm
	// gap-aware differencing absorbs every hole the injector punched.
	seqs, fs := storeN(t, Plan{Seed: 11, Drop: 0.2}, 0, 50)
	if fs.Dropped() == 0 || len(seqs) == 0 {
		t.Fatalf("want some but not all of 50 dumps dropped, kept %d", len(seqs))
	}
	snaps, err := fs.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	profiles, gaps, err := differenceRobust(snaps)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for _, g := range gaps {
		if g.Kind != interval.GapMissing {
			t.Fatalf("unexpected gap kind %v", g.Kind)
		}
		missing += g.Missing
	}
	// Every interior drop becomes gap coverage; drops at the tail leave no
	// following dump to reveal them, so missing <= dropped.
	if missing == 0 || missing > fs.Dropped() {
		t.Fatalf("gaps cover %d missing dumps, injector dropped %d", missing, fs.Dropped())
	}
	if len(profiles) != seqs[len(seqs)-1]+1 {
		t.Fatalf("split repair yielded %d profiles, want %d (every interval up to the last kept dump)",
			len(profiles), seqs[len(seqs)-1]+1)
	}
}

func TestSamplerInjectsErrorsAndStalls(t *testing.T) {
	inner := ldms.SamplerFunc(func() (ldms.MetricSet, error) {
		return ldms.MetricSet{Producer: "rank0"}, nil
	})
	var stalls []time.Duration
	plan := Plan{Seed: 2, SampleError: 0.5, SampleStall: 0.5, StallFor: 123 * time.Millisecond}
	plan.sleep = func(d time.Duration) { stalls = append(stalls, d) }
	fsamp := newFaultSampler(inner, plan, 0)
	errs := 0
	for i := 0; i < 100; i++ {
		if _, err := fsamp.Sample(); err != nil {
			errs++
		}
	}
	if errs == 0 || errs == 100 {
		t.Fatalf("injected %d errors in 100 calls at p=0.5", errs)
	}
	if len(stalls) == 0 {
		t.Fatal("no stalls injected at p=0.5")
	}
	for _, d := range stalls {
		if d != 123*time.Millisecond {
			t.Fatalf("stall = %v, want StallFor", d)
		}
	}
}

func TestConnGarbageFailsDecodeNotHang(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ldms.Serve(l, ldms.SamplerFunc(func() (ldms.MetricSet, error) {
		return ldms.MetricSet{Producer: "remote"}, nil
	}))

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sampler := ldms.NewConnSampler(newFaultConn(conn, Plan{Seed: 4, Garbage: 1}, 0), ldms.DialOptions{
		SampleTimeout: 2 * time.Second,
	})
	_, err = sampler.Sample()
	if err == nil {
		t.Fatal("garbage response decoded successfully")
	}
	if !strings.Contains(err.Error(), "decoding") {
		t.Fatalf("err = %v, want a decode failure (not a hang or transport error)", err)
	}
}

func TestConnGarbageAbsorbedByRetry(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ldms.Serve(l, ldms.SamplerFunc(func() (ldms.MetricSet, error) {
		return ldms.MetricSet{Producer: "remote", Name: "test"}, nil
	}))

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Garbage fires per read decision; with p=0.5 and several retries the
	// hardened transport should eventually pull a clean response.
	fc := newFaultConn(conn, Plan{Seed: 6, Garbage: 0.5}, 0)
	sampler := ldms.NewConnSampler(fc, ldms.DialOptions{
		SampleTimeout: 2 * time.Second,
		Retries:       10,
		Backoff:       time.Millisecond,
	})
	set, err := sampler.Sample()
	if err != nil {
		t.Fatalf("retries did not absorb 50%% garbage: %v", err)
	}
	if set.Producer != "remote" {
		t.Fatalf("set = %+v", set)
	}
}

// discard is a sink that drops every snapshot.
type discard struct{}

func (discard) Emit(*profile.Sample) error { return nil }

// differenceRobust pushes snaps through a RobustStream, as the streaming
// engine's robust differencer does, and returns the profiles and gaps it
// emits and its terminal error.
func differenceRobust(snaps []*profile.Sample) ([]interval.Profile, []interval.Gap, error) {
	rs := interval.NewRobustStream(interval.GapSplit)
	b := interval.NewMatrixBuilder(interval.FeatureOptions{})
	var gaps []interval.Gap
	for _, s := range snaps {
		rs.Push(s, func(g interval.Gap) { gaps = append(gaps, g) }, func(d *interval.Delta) error {
			b.AddCells(d.Start, d.End, d.Repaired, d.Cells, d.Name)
			return nil
		})
	}
	return interval.Profiles(b.Rows()), gaps, rs.Err()
}
