package checkpoint_test

import (
	"bytes"
	"testing"

	"github.com/incprof/incprof/internal/apps"
	"github.com/incprof/incprof/internal/checkpoint"
	"github.com/incprof/incprof/internal/pipeline"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

// readChunk mirrors the directory reader's chunk: a catch-up over a backlog
// reaches the runner as EmitBatch calls of this many dumps.
const readChunk = 64

// startRunner opens dir and recovers a runner from it.
func startRunner(t *testing.T, dir string, opts stream.Options, every int) (*checkpoint.Manager, *checkpoint.Runner) {
	t.Helper()
	mgr, err := checkpoint.Open(dir, checkpoint.ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	runner, _, err := checkpoint.Start(mgr, checkpoint.RunnerOptions{Config: testConfig(false), Engine: opts, Every: every})
	if err != nil {
		t.Fatal(err)
	}
	return mgr, runner
}

// emitChunks feeds snaps to the runner the way a catch-up read does: in
// EmitBatch calls of up to readChunk dumps, each a fresh slice.
func emitChunks(t *testing.T, runner *checkpoint.Runner, snaps []*profile.Sample) {
	t.Helper()
	for lo := 0; lo < len(snaps); lo += readChunk {
		batch := append([]*profile.Sample(nil), snaps[lo:min(lo+readChunk, len(snaps))]...)
		if err := runner.EmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
}

// resumeBatched recovers from dir, catches up on every dump the previous
// life did not dispose of in read chunks, and returns the terminal
// flattening.
func resumeBatched(t *testing.T, dir string, opts stream.Options, every int, snaps []*profile.Sample) []byte {
	t.Helper()
	_, runner := startRunner(t, dir, opts, every)
	var rest []*profile.Sample
	for _, s := range snaps {
		if !runner.Seen(s.Seq) {
			rest = append(rest, s)
		}
	}
	emitChunks(t, runner, rest)
	r, err := runner.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return flatten(t, r.Detection, r.Gaps)
}

// A kill at every dump position of a multi-chunk catch-up resumes to the
// uninterrupted report. Two kills per position p: after the engine has
// seen the first p dumps, and after the batch piece holding dump p-1 has
// been written to the WAL and fsynced but before the engine has seen any
// of it. A runner writes a piece's records with one Manager.Append before
// the engine sees them, so appending records p0..p-1 through the manager
// and abandoning the process leaves exactly what that kill leaves; when p
// ends a piece it is the kill between the fsync and the engine, otherwise
// a kill partway through writing the piece.
func TestKillAnywhereInBatchedCatchUp(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-at-every-point sweep; run in the gate job")
	}
	app, err := apps.New("minife", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	col, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	snaps := col.Snapshots[0]
	if len(snaps) <= 2*readChunk {
		t.Fatalf("fixture spans %d dumps, want more than two read chunks", len(snaps))
	}
	opts := engOpts(false, 0)
	want := golden(t, snaps, opts)
	const every = 20 // saves fall inside chunks and on a chunk boundary
	for p := 0; p <= len(snaps); p++ {
		dir := t.TempDir()
		mgr, runner := startRunner(t, dir, opts, every)
		emitChunks(t, runner, snaps[:p])
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		if got := resumeBatched(t, dir, opts, every, snaps); !bytes.Equal(got, want) {
			t.Fatalf("kill after the engine saw %d/%d dumps: resumed report diverged", p, len(snaps))
		}
		if p == 0 {
			continue
		}
		// The piece holding dump p-1 starts at the later of its chunk's
		// start and the last save point before it.
		p0 := max((p-1)/readChunk*readChunk, (p-1)/every*every)
		dir = t.TempDir()
		mgr, runner = startRunner(t, dir, opts, every)
		emitChunks(t, runner, snaps[:p0])
		if err := mgr.Append(snaps[p0:p]...); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		if got := resumeBatched(t, dir, opts, every, snaps); !bytes.Equal(got, want) {
			t.Fatalf("kill after WAL records %d..%d, before the engine saw them: resumed report diverged", p0, p-1)
		}
	}
}

// A batch is split at snapshot points: saves land after exactly every
// Every accepted dumps whatever the batch boundaries, a save inside a
// batch may carry a refresh still pending, and the state restores.
func TestBatchSavesAtEveryAndRestoresPendingRefresh(t *testing.T) {
	snaps := collect(t, "minife")
	opts := engOpts(false, 0)
	// One 63-dump batch: saves at 10, 20, ... 60 inside it, and the one
	// refresh after its last dump.
	const every, n = 10, 60
	dir := t.TempDir()
	mgr, runner := startRunner(t, dir, opts, every)
	emitChunks(t, runner, snaps[:n+3])
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := checkpoint.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecoverGeneration != n || rep.RecoverRecords != 3 {
		t.Fatalf("recovery would resume from generation %d with %d WAL records, want %d and 3",
			rep.RecoverGeneration, rep.RecoverRecords, n)
	}
	mgr2, err := checkpoint.Open(dir, checkpoint.ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := mgr2.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := rec.Snapshot.Engine; st.SinceRefresh < opts.RefreshEvery {
		t.Fatalf("snapshot inside a %d-dump batch carries SinceRefresh %d, want a pending refresh (>= %d)",
			n+3, st.SinceRefresh, opts.RefreshEvery)
	}
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := resumeBatched(t, dir, opts, every, snaps), golden(t, snaps, opts); !bytes.Equal(got, want) {
		t.Fatal("resume from a snapshot with a pending refresh diverged")
	}
}
