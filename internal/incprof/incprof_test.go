package incprof

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/exec"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/profiler"
)

func runToyApp(rt *exec.Runtime, seconds int) {
	main := rt.Register("main")
	work := rt.Register("work")
	rt.Call(main, func() {
		for i := 0; i < seconds*4; i++ {
			rt.Call(work, func() { rt.Work(250 * time.Millisecond) })
		}
	})
}

func TestCollectorDumpsPerInterval(t *testing.T) {
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{})
	runToyApp(rt, 5)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := c.Store().Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 5 {
		t.Fatalf("got %d snapshots for a 5-second run, want 5", len(snaps))
	}
	for i, s := range snaps {
		if s.Seq != i {
			t.Fatalf("snapshot %d has seq %d", i, s.Seq)
		}
		if want := time.Duration(i+1) * time.Second; s.Timestamp != want {
			t.Fatalf("snapshot %d at %v, want %v", i, s.Timestamp, want)
		}
	}
}

func TestSnapshotsAreCumulative(t *testing.T) {
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{})
	runToyApp(rt, 3)
	c.Close()
	snaps, _ := c.Store().Snapshots()
	var prev int64 = -1
	for _, s := range snaps {
		rec, ok := s.Func("work")
		if !ok {
			t.Fatal("work missing from snapshot")
		}
		if rec.Samples <= prev {
			t.Fatalf("samples not strictly increasing: %d then %d", prev, rec.Samples)
		}
		prev = rec.Samples
	}
}

func TestCloseTakesFinalPartialDump(t *testing.T) {
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{})
	main := rt.Register("main")
	rt.Call(main, func() { rt.Work(2500 * time.Millisecond) })
	c.Close()
	snaps, _ := c.Store().Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots for 2.5s run, want 3 (2 full + final partial)", len(snaps))
	}
	if snaps[2].Timestamp != 2500*time.Millisecond {
		t.Fatalf("final dump at %v, want 2.5s", snaps[2].Timestamp)
	}
}

func TestCloseIdempotentAndNoExtraDumpOnBoundary(t *testing.T) {
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{})
	main := rt.Register("main")
	rt.Call(main, func() { rt.Work(2 * time.Second) })
	c.Close()
	c.Close()
	snaps, _ := c.Store().Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots for exactly-2s run, want 2 (no empty final dump)", len(snaps))
	}
}

func TestCustomInterval(t *testing.T) {
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{Interval: 500 * time.Millisecond})
	main := rt.Register("main")
	rt.Call(main, func() { rt.Work(2 * time.Second) })
	c.Close()
	snaps, _ := c.Store().Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("got %d snapshots at 0.5s interval over 2s, want 4", len(snaps))
	}
	if c.Interval() != 500*time.Millisecond {
		t.Fatal("Interval() mismatch")
	}
}

func TestNegativeIntervalPanics(t *testing.T) {
	rt := exec.New(nil)
	p := profiler.New(rt, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(rt, p, Options{Interval: -1})
}

func TestDirStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{Store: st})
	runToyApp(rt, 3)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("DirStore read back %d snapshots, want 3", len(snaps))
	}
	for i, s := range snaps {
		if s.Seq != i {
			t.Fatalf("file order wrong: seq %d at index %d", s.Seq, i)
		}
		if _, ok := s.Func("work"); !ok {
			t.Fatal("decoded snapshot missing function record")
		}
	}

	// The text reports, read through the registry's gprof format, recover
	// the same self times.
	gprof, ok := profile.Lookup("gprof")
	if !ok {
		t.Fatal("gprof format not registered")
	}
	text, err := readAll(dir, gprof)
	if err != nil {
		t.Fatal(err)
	}
	if len(text) != 3 {
		t.Fatalf("read %d gprof reports, want 3", len(text))
	}
	for i := range text {
		binRec, _ := snaps[i].Func("work")
		txtRec, ok := text[i].Func("work")
		if !ok {
			t.Fatal("text report missing work")
		}
		if txtRec.Samples != binRec.Samples || txtRec.Calls != binRec.Calls {
			t.Fatalf("text path disagrees with binary path at %d: %+v vs %+v", i, txtRec, binRec)
		}
	}
}

func TestDirStoreSeqOrderingBeyondNine(t *testing.T) {
	// gmon.out.10 must sort after gmon.out.9 (numeric, not lexicographic).
	dir := t.TempDir()
	st, err := NewDirStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{Store: st})
	main := rt.Register("main")
	rt.Call(main, func() { rt.Work(12 * time.Second) })
	c.Close()
	snaps, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 12 {
		t.Fatalf("got %d snapshots, want 12", len(snaps))
	}
	for i, s := range snaps {
		if s.Seq != i {
			t.Fatalf("numeric ordering broken: seq %d at index %d", s.Seq, i)
		}
	}
}

func TestCollectorHostStats(t *testing.T) {
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{})
	runToyApp(rt, 3)
	c.Close()
	if c.Dumps() != 3 {
		t.Fatalf("Dumps = %d", c.Dumps())
	}
	if c.HostEncodeTime() <= 0 {
		t.Fatal("HostEncodeTime not recorded")
	}
}

func BenchmarkDumpCycle(b *testing.B) {
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{})
	main := rt.Register("main")
	fns := make([]exec.FuncID, 50)
	for i := range fns {
		fns[i] = rt.Register("fn" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	b.ResetTimer()
	rt.Call(main, func() {
		for i := 0; i < b.N; i++ {
			rt.Call(fns[i%len(fns)], func() { rt.Work(time.Second) })
		}
	})
	b.StopTimer()
	c.Close()
}

func TestGmonOutStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewGmonOutStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{Store: st})
	runToyApp(rt, 3)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("read back %d snapshots, want 3", len(snaps))
	}
	// The real format preserves sampled histogram counts, timestamps (via
	// the sidecar), and arc-derived call counts.
	direct := NewMemStore()
	rt2 := exec.New(nil)
	p2 := profiler.New(rt2, 10*time.Millisecond)
	c2 := New(rt2, p2, Options{Store: direct})
	runToyApp(rt2, 3)
	c2.Close()
	want, _ := direct.Snapshots()
	for i := range snaps {
		if snaps[i].Timestamp != want[i].Timestamp {
			t.Fatalf("dump %d timestamp %v != %v", i, snaps[i].Timestamp, want[i].Timestamp)
		}
		gotWork, ok := snaps[i].Func("work")
		if !ok {
			t.Fatalf("dump %d missing work", i)
		}
		wantWork, _ := want[i].Func("work")
		if gotWork.Samples != wantWork.Samples {
			t.Fatalf("dump %d samples %d != %d", i, gotWork.Samples, wantWork.Samples)
		}
		if gotWork.Calls != wantWork.Calls {
			t.Fatalf("dump %d calls %d != %d (arcs should carry them)", i, gotWork.Calls, wantWork.Calls)
		}
	}
	// Files on disk look like the real pipeline's.
	if _, err := os.Stat(filepath.Join(dir, "gmon.out.0")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "symbols.out.0")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "gmon.out.0"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:4]) != "gmon" {
		t.Fatalf("not real gmon.out magic: %q", raw[:4])
	}
}

func TestGmonOutStoreMissingSidecar(t *testing.T) {
	dir := t.TempDir()
	st, err := NewGmonOutStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A gmon.out file without its symbols sidecar cannot be resolved.
	if err := os.WriteFile(filepath.Join(dir, "gmon.out.0"), []byte("gmon"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshots(); err == nil {
		t.Fatal("decoded a dump with no symbol table")
	}
}

// The full analysis works from real-format dumps end to end.
func TestAnalysisFromRealGmonOutFormat(t *testing.T) {
	dir := t.TempDir()
	st, err := NewGmonOutStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{Store: st})
	main := rt.Register("main")
	stepFn := rt.Register("step")
	solveFn := rt.Register("solve")
	rt.Call(main, func() {
		for i := 0; i < 21; i++ {
			rt.Call(stepFn, func() { rt.Work(250 * time.Millisecond) })
		}
		rt.Call(solveFn, func() { rt.Work(6 * time.Second) })
	})
	c.Close()
	snaps, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	profs, err := interval.Difference(snaps)
	if err != nil {
		t.Fatal(err)
	}
	det, err := phase.Detect(profs, phase.Options{Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Phases) != 2 {
		t.Fatalf("phases from real-format dumps = %d, want 2", len(det.Phases))
	}
}

func TestDirStoreRejectsCorruptedDump(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{Store: st})
	runToyApp(rt, 2)
	c.Close()
	// Corrupt the first dump in place.
	path := filepath.Join(dir, "gmon.out.0")
	if err := os.WriteFile(path, []byte("garbage that is not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshots(); err == nil {
		t.Fatal("corrupted dump decoded without error")
	}
}

func TestDirStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{Store: st})
	runToyApp(rt, 2)
	c.Close()
	for _, junk := range []string{"README", "gmon.out.notanumber", "gmon.out"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Stray copies whose names only parse to a dump's number must not alias
	// that dump.
	dump, err := os.ReadFile(st.PathFor(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, alias := range []string{"gmon.out.01", "gmon.out.+1"} {
		if err := os.WriteFile(filepath.Join(dir, alias), dump, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("foreign files changed the snapshot set: %d", len(snaps))
	}
}

func TestStoreAccessorsAndErrPropagation(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dir() != dir {
		t.Fatalf("Dir = %q", st.Dir())
	}

	// A store that cannot write surfaces its error through the collector.
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := New(rt, p, Options{Store: failingStore{}})
	main := rt.Register("main")
	rt.Call(main, func() { rt.Work(2 * time.Second) })
	if c.Err() == nil {
		t.Fatal("store failure not recorded")
	}
	if err := c.Close(); err == nil {
		t.Fatal("Close did not report the store failure")
	}
}

type failingStore struct{}

func (failingStore) Put(*profile.Sample) error { return errStoreBroken }
func (failingStore) Snapshots() ([]*profile.Sample, error) {
	return nil, errStoreBroken
}

var errStoreBroken = fmt.Errorf("store broken")

func TestNewDirStoreRejectsUnusablePath(t *testing.T) {
	// A file where a directory is needed.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDirStore(filepath.Join(blocker, "sub"), false); err == nil {
		t.Fatal("created a store under a file")
	}
	if _, err := NewGmonOutStore(filepath.Join(blocker, "sub")); err == nil {
		t.Fatal("created a gmon.out store under a file")
	}
}
