// Recovery equivalence property suite: kill the durable pipeline at any
// point — between any two accepted dumps, during a snapshot's lifetime,
// mid-WAL-record, at flush — restart from the state directory, feed the
// rest of the stream, and the terminal report must be byte-identical to an
// uninterrupted run. This is the tentpole contract of the checkpoint layer;
// everything else in the package exists to make these tests pass.
package checkpoint_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/apps"
	_ "github.com/incprof/incprof/internal/apps/allocgc"
	_ "github.com/incprof/incprof/internal/apps/gadget"
	_ "github.com/incprof/incprof/internal/apps/graph500"
	_ "github.com/incprof/incprof/internal/apps/lammps"
	_ "github.com/incprof/incprof/internal/apps/microsvc"
	_ "github.com/incprof/incprof/internal/apps/miniamr"
	_ "github.com/incprof/incprof/internal/apps/minife"
	"github.com/incprof/incprof/internal/checkpoint"
	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/faults"
	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/mpi"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/pipeline"
	_ "github.com/incprof/incprof/internal/pprof"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

func flatten(t *testing.T, det *phase.Detection, gaps []interval.Gap) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		K        int
		WCSS     []float64
		Phases   []phase.Phase
		Matrix   interval.Matrix
		Profiles []interval.Profile
		Gaps     []interval.Gap
	}{det.K, det.WCSS, det.Phases, det.Matrix, interval.Profiles(det.Profiles), gaps})
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

func engOpts(robust bool, parallelism int) stream.Options {
	return stream.Options{
		Robust: robust,
		Phase: phase.Options{
			Features: interval.FeatureOptions{Exclude: mpi.IsMPIFunc},
			Cluster:  cluster.Options{Seed: 7, Parallelism: parallelism},
		},
		RefreshEvery: 7,
	}
}

func testConfig(robust bool) checkpoint.Config {
	return checkpoint.Config{Seed: 7, KMax: 8, Robust: robust, RefreshEvery: 7}
}

// golden runs the plain (non-durable) engine over the whole stream.
func golden(t *testing.T, snaps []*profile.Sample, opts stream.Options) []byte {
	t.Helper()
	eng := stream.New(opts)
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

// runToCrash drives a durable pipeline until the injected crash fires (or
// the stream ends, if crashAt is past it), then abandons everything exactly
// as a SIGKILL would: no save, no flush, only the file descriptors closed
// (contents are already what the kill leaves).
func runToCrash(t *testing.T, dir string, robust bool, opts stream.Options, every int, snaps []*profile.Sample, crashAt int) {
	t.Helper()
	mgr, err := checkpoint.Open(dir, checkpoint.ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	runner, _, err := checkpoint.Start(mgr, checkpoint.RunnerOptions{
		Config: testConfig(robust),
		Engine: opts,
		Every:  every,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := faults.NewCrashSink(runner, crashAt)
	for _, s := range snaps {
		if err := cs.Emit(s); err != nil {
			if errors.Is(err, faults.ErrCrash) {
				break
			}
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
}

// resumeAndFinish recovers from dir, feeds every dump the previous life had
// not disposed of (the tailer's Seen-skip), and returns the terminal
// flattening.
func resumeAndFinish(t *testing.T, dir string, robust bool, opts stream.Options, every int, snaps []*profile.Sample) []byte {
	t.Helper()
	mgr, err := checkpoint.Open(dir, checkpoint.ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	runner, _, err := checkpoint.Start(mgr, checkpoint.RunnerOptions{
		Config: testConfig(robust),
		Engine: opts,
		Every:  every,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range snaps {
		if runner.Seen(s.Seq) {
			continue
		}
		if err := runner.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	r, err := runner.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return flatten(t, r.Detection, r.Gaps)
}

// Every kill point on one real application: crash between every pair of
// accepted dumps (and before the first, and after the last), resume, and
// demand byte identity with the uninterrupted run. every=5 places crash
// points before, on, and after each snapshot boundary.
func TestKillAnywhereBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-at-every-point sweep; run in the gate job")
	}
	snaps := collect(t, "graph500")
	opts := engOpts(false, 0)
	want := golden(t, snaps, opts)
	const every = 5
	for crashAt := 0; crashAt <= len(snaps); crashAt++ {
		dir := t.TempDir()
		runToCrash(t, dir, false, opts, every, snaps, crashAt)
		got := resumeAndFinish(t, dir, false, opts, every, snaps)
		if !bytes.Equal(got, want) {
			t.Fatalf("crash at %d/%d: resumed report diverged (%d vs %d bytes)", crashAt, len(snaps), len(got), len(want))
		}
	}
}

// Every registered app (the five paper apps plus the two ground-truth
// fixtures), crash points straddling checkpoint boundaries, at
// clustering parallelism 1 and 8 — the recovered state must be invariant
// under the worker-pool size like every other entry point.
func TestRecoveryBitIdentityAcrossAppsAndParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full per-app recovery matrix; run in the gate job")
	}
	const every = 5
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			snaps := collect(t, name)
			for _, par := range []int{1, 8} {
				opts := engOpts(false, par)
				want := golden(t, snaps, opts)
				points := []int{1, every - 1, every, 2*every + 1, len(snaps) - 1}
				for _, crashAt := range points {
					if crashAt < 0 || crashAt > len(snaps) {
						continue
					}
					dir := t.TempDir()
					runToCrash(t, dir, false, opts, every, snaps, crashAt)
					got := resumeAndFinish(t, dir, false, opts, every, snaps)
					if !bytes.Equal(got, want) {
						t.Fatalf("par %d crash at %d: resumed report diverged", par, crashAt)
					}
				}
			}
		})
	}
}

// faultyDirSnaps synthesizes the faults a dump directory can actually
// exhibit — missing Seq spans and collector restarts (counters and clock
// reset) — with strictly increasing Seqs, as a directory tailer would
// deliver them.
func faultyDirSnaps(seed int64, n int) []*profile.Sample {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"alpha", "beta", "gamma"}
	period := 10 * time.Millisecond
	cum := make([]int64, len(names))
	var out []*profile.Sample
	seq := 0
	ts := time.Duration(0)
	for len(out) < n {
		switch r := rng.Float64(); {
		case r < 0.15 && seq > 0:
			seq += 1 + rng.Intn(3) // dumps lost: Seq gap
		case r < 0.23 && seq > 0:
			for i := range cum {
				cum[i] = 0 // collector restart
			}
			ts = time.Duration(rng.Intn(500)) * time.Millisecond
		}
		ts += time.Second
		s := &profile.Sample{Seq: seq, Timestamp: ts, SamplePeriod: period}
		for i, name := range names {
			cum[i] += int64(rng.Intn(80) + 1)
			s.Funcs = append(s.Funcs, profile.FuncRecord{
				Name: name, Samples: cum[i],
				SelfTime: time.Duration(cum[i]) * period,
				Calls:    cum[i] / 3,
			})
		}
		out = append(out, s)
		seq++
	}
	return out
}

// Crashes during faulty streams: the robust engine's gap repairs, restart
// absorption, and the recovered state all line up with the uninterrupted
// run for every crash point.
func TestRecoveryOnFaultyStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed fault recovery matrix; run in the gate job")
	}
	const every = 6
	for seed := int64(1); seed <= 3; seed++ {
		snaps := faultyDirSnaps(seed, 40)
		opts := engOpts(true, 0)
		want := golden(t, snaps, opts)
		for crashAt := 0; crashAt <= len(snaps); crashAt += 5 {
			dir := t.TempDir()
			runToCrash(t, dir, true, opts, every, snaps, crashAt)
			got := resumeAndFinish(t, dir, true, opts, every, snaps)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d crash at %d: resumed report diverged", seed, crashAt)
			}
		}
	}
}

// A snapshot file torn after the fact (disk damage, not a clean crash):
// recovery falls back to the previous generation and replays the WAL chain
// across both generations — still byte-identical.
func TestTornSnapshotFallsBackAndStaysBitIdentical(t *testing.T) {
	snaps := collect(t, "minife")
	opts := engOpts(false, 0)
	want := golden(t, snaps, opts)
	const every = 4
	crashAt := 2*every + 2 // two snapshots written, WAL records after the second
	if crashAt > len(snaps) {
		t.Fatalf("fixture too short: %d snaps", len(snaps))
	}
	dir := t.TempDir()
	runToCrash(t, dir, false, opts, every, snaps, crashAt)

	newest, err := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
	if err != nil || len(newest) < 2 {
		t.Fatalf("want >= 2 snapshot generations, have %v (%v)", newest, err)
	}
	if err := faults.TearFile(newest[len(newest)-1], 11); err != nil {
		t.Fatal(err)
	}

	got := resumeAndFinish(t, dir, false, opts, every, snaps)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed report diverged after torn-snapshot fallback")
	}
}

// WAL tail corruption: the damaged record's dump has no durable copy, but
// its Seq is therefore absent from the seen set, so the resuming tailer
// re-ingests it from the dump directory — byte identity holds.
func TestWALTailCorruptionStaysBitIdentical(t *testing.T) {
	snaps := collect(t, "miniamr")
	opts := engOpts(false, 0)
	want := golden(t, snaps, opts)
	const every = 1000 // never snapshot: everything lives in wal-0
	crashAt := len(snaps) / 2
	dir := t.TempDir()
	runToCrash(t, dir, false, opts, every, snaps, crashAt)

	if err := faults.CorruptTail(filepath.Join(dir, "wal-0000000000000000.log"), 23, 16); err != nil {
		t.Fatal(err)
	}

	got := resumeAndFinish(t, dir, false, opts, every, snaps)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed report diverged after WAL tail corruption")
	}
}

// Death at end of stream, before the terminal report: resume replays and
// finishes identically.
func TestCrashAtFlushRecovers(t *testing.T) {
	snaps := collect(t, "lammps")
	opts := engOpts(false, 0)
	want := golden(t, snaps, opts)
	dir := t.TempDir()

	mgr, err := checkpoint.Open(dir, checkpoint.ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	runner, _, err := checkpoint.Start(mgr, checkpoint.RunnerOptions{
		Config: testConfig(false), Engine: opts, Every: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := faults.NewFlushCrashSink(runner)
	for _, s := range snaps {
		if err := cs.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Flush(); !errors.Is(err, faults.ErrCrash) {
		t.Fatalf("flush crash = %v, want ErrCrash", err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	got := resumeAndFinish(t, dir, false, opts, 5, snaps)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed report diverged after crash at flush")
	}
}

// Shed markers are durable: a dump deliberately dropped by overload control
// stays out of the stream after a crash — the resumed run neither re-ingests
// it nor diverges from an uninterrupted run that shed the same dump.
func TestShedMarkersSurviveCrash(t *testing.T) {
	snaps := faultyDirSnaps(5, 24)
	shedIdx := 7
	opts := engOpts(true, 0)

	// Golden: an uninterrupted run in which snaps[shedIdx] was shed — the
	// engine simply never sees it, leaving a gap the robust path repairs.
	var withoutShed []*profile.Sample
	for i, s := range snaps {
		if i != shedIdx {
			withoutShed = append(withoutShed, s)
		}
	}
	want := golden(t, withoutShed, opts)

	dir := t.TempDir()
	mgr, err := checkpoint.Open(dir, checkpoint.ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	runner, _, err := checkpoint.Start(mgr, checkpoint.RunnerOptions{
		Config: testConfig(true), Engine: opts, Every: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps[:12] {
		if i == shedIdx {
			if err := runner.RecordShed(s); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := runner.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	// SIGKILL here.
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, err := checkpoint.Open(dir, checkpoint.ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	runner2, _, err := checkpoint.Start(mgr2, checkpoint.RunnerOptions{
		Config: testConfig(true), Engine: opts, Every: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !runner2.Seen(snaps[shedIdx].Seq) {
		t.Fatal("shed marker lost across crash: tailer would re-ingest the shed dump")
	}
	for _, s := range snaps {
		if runner2.Seen(s.Seq) {
			continue
		}
		if err := runner2.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	r, err := runner2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := flatten(t, r.Detection, r.Gaps); !bytes.Equal(got, want) {
		t.Fatal("resumed run with durable shed diverged from uninterrupted shed run")
	}
}

// Recovery is format-blind: a run persisted as pprof.out.N protobuf dumps
// and re-ingested through the ProfileSource boundary survives kill/restart
// with the same byte-identity guarantee the canonical layout gets — the WAL
// and checkpoints carry format-neutral samples, so the frontend that decoded
// them cannot matter.
func TestRecoveryFromPprofIngestBitIdentity(t *testing.T) {
	raw := collect(t, "microsvc")
	f, ok := profile.Lookup("pprof")
	if !ok {
		t.Fatal("pprof format not registered")
	}
	st, err := incprof.NewFormatDirStore(filepath.Join(t.TempDir(), "dumps"), f)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range raw {
		if err := st.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(raw) {
		t.Fatalf("pprof round trip lost dumps: %d -> %d", len(raw), len(snaps))
	}
	opts := engOpts(false, 0)
	want := golden(t, snaps, opts)
	const every = 3
	for _, crashAt := range []int{0, 1, every, len(snaps) - 1} {
		if crashAt < 0 || crashAt > len(snaps) {
			continue
		}
		dir := t.TempDir()
		runToCrash(t, dir, false, opts, every, snaps, crashAt)
		got := resumeAndFinish(t, dir, false, opts, every, snaps)
		if !bytes.Equal(got, want) {
			t.Fatalf("crash at %d: resumed pprof-ingested report diverged", crashAt)
		}
	}
}
