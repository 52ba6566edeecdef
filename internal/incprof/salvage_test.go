package incprof

import (
	"errors"
	"os"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/exec"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/profiler"
	"github.com/incprof/incprof/internal/vclock"
)

// fillDirStore runs the toy app for seconds seconds under a DirStore and
// returns the store.
func fillDirStore(t *testing.T, seconds int) *DirStore {
	t.Helper()
	st, err := NewDirStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{Store: st})
	runToyApp(rt, seconds)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// salvageRead reads st's directory once, skipping undecodable dumps.
func salvageRead(st *DirStore) ([]*profile.Sample, TailResult, error) {
	out := collect{}
	res, err := ReadDir(st.Dir(), &out, TailOptions{Format: st.format, Salvage: true})
	return out, res, err
}

func TestSalvageSkipsCorruptAndTruncatedDumps(t *testing.T) {
	st := fillDirStore(t, 6)

	// Garbage in dump 1, truncation of dump 3 (a collector dying
	// mid-encode leaves exactly this).
	if err := os.WriteFile(st.PathFor(1), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(st.PathFor(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(st.PathFor(3), info.Size()/2); err != nil {
		t.Fatal(err)
	}

	if _, err := st.Snapshots(); err == nil {
		t.Fatal("strict load accepted a corrupt dump")
	}

	snaps, report, err := salvageRead(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 4 || report.Emitted != 4 {
		t.Fatalf("salvaged %d snapshots (report %d), want 4", len(snaps), report.Emitted)
	}
	if len(report.Skipped) != 2 {
		t.Fatalf("skipped = %+v, want 2 entries", report.Skipped)
	}
	if report.Skipped[0].Seq != 1 || report.Skipped[1].Seq != 3 {
		t.Fatalf("skipped seqs = %d, %d, want 1, 3", report.Skipped[0].Seq, report.Skipped[1].Seq)
	}
	for _, sk := range report.Skipped {
		if sk.Err == nil || sk.Name == "" {
			t.Fatalf("skip record incomplete: %+v", sk)
		}
	}

	// Downstream degraded-mode analysis completes with Gap records at the
	// skipped intervals (the acceptance path: corrupt file -> salvage ->
	// gap-aware differencing).
	res, err := interval.DifferenceRobust(snaps, interval.RobustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gaps) != 2 {
		t.Fatalf("gaps = %+v, want 2", res.Gaps)
	}
	for _, g := range res.Gaps {
		if g.Kind != interval.GapMissing || g.Missing != 1 {
			t.Fatalf("gap = %+v, want a single-dump missing gap", g)
		}
	}
	if got := res.Gaps[0].ToSeq; got != 2 {
		t.Fatalf("first gap closes at seq %d, want 2", got)
	}
	if len(res.Profiles) != 6 {
		t.Fatalf("split repair yielded %d profiles, want 6", len(res.Profiles))
	}
}

func TestSalvageCleanDirectoryReportsNothing(t *testing.T) {
	st := fillDirStore(t, 3)
	snaps, report, err := salvageRead(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 || report.Emitted != 3 || len(report.Skipped) != 0 {
		t.Fatalf("clean salvage: %d snaps, report %+v", len(snaps), report)
	}
}

// flakyStore fails the first failN Put calls, then succeeds.
type flakyStore struct {
	inner Store
	failN int
	calls int
}

func (f *flakyStore) Put(s *profile.Sample) error {
	f.calls++
	if f.calls <= f.failN {
		return errors.New("transient store failure")
	}
	return f.inner.Put(s)
}

func (f *flakyStore) Snapshots() ([]*profile.Sample, error) { return f.inner.Snapshots() }

func TestCollectorRetriesTransientPutFailure(t *testing.T) {
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	fs := &flakyStore{inner: NewMemStore(), failN: 1} // first Put fails once, retry lands
	c := New(rt, p, Options{Store: fs})
	runToyApp(rt, 3)
	if err := c.Close(); err != nil {
		t.Fatalf("retry should have absorbed the transient failure, got %v", err)
	}
	if c.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0", c.Dropped())
	}
	snaps, err := fs.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("stored %d snapshots, want 3", len(snaps))
	}
}

func TestCollectorCountsDroppedDumps(t *testing.T) {
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	fs := &flakyStore{inner: NewMemStore(), failN: 4} // first 2 dumps lost even after retries
	c := New(rt, p, Options{Store: fs})
	runToyApp(rt, 4)
	if err := c.Close(); err == nil {
		t.Fatal("expected the first persistent failure to be reported")
	}
	if c.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", c.Dropped())
	}
	snaps, err := fs.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("stored %d snapshots, want 2", len(snaps))
	}
}

func TestCollectorHaltStopsDumpingMidRun(t *testing.T) {
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{})
	// Kill the collector at t=2.5s; dumps at 1s and 2s exist, nothing after.
	rt.Clock().AfterFunc(2500*time.Millisecond, func(_ vclock.Time) { c.Halt() })
	runToyApp(rt, 5)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Dumps() != 2 {
		t.Fatalf("halted collector took %d dumps, want 2", c.Dumps())
	}
}
