// Fsck verdict matrix: build real state directories with the Runner, damage
// them the way crashes do (faults.TearFile, faults.CorruptTail), and pin
// what Fsck reports for each — which generation recovery would use, how many
// WAL records it would replay, and whether the operator should worry.
package checkpoint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/checkpoint"
	"github.com/incprof/incprof/internal/faults"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

// fsckSnaps builds a deterministic synthetic cumulative stream: enough for
// the engine to accept, tiny enough to run in every -short pass.
func fsckSnaps(n, funcs int) []*profile.Sample {
	period := 10 * time.Millisecond
	cum := make([]int64, funcs)
	out := make([]*profile.Sample, n)
	for i := 0; i < n; i++ {
		s := &profile.Sample{
			Seq:          i,
			Timestamp:    time.Duration(i+1) * time.Second,
			SamplePeriod: period,
			Funcs:        make([]profile.FuncRecord, funcs),
		}
		for j := range cum {
			cum[j] += int64((i*7+j*3)%11) + 1
			s.Funcs[j] = profile.FuncRecord{
				Name:     fmt.Sprintf("fn_%02d", j),
				Samples:  cum[j],
				SelfTime: time.Duration(cum[j]) * period,
				Calls:    int64(i + 1),
			}
		}
		out[i] = s
	}
	return out
}

// buildFsckState feeds n synthetic dumps through a durable runner with the
// given snapshot cadence and abandons the directory mid-run (no flush), the
// way a kill would. With n=12, every=5 the directory holds snapshots at
// generations 5 and 10 and WALs 0, 5, 10 (GC keeps two generations).
func buildFsckState(t *testing.T, dir string, n, every int) {
	t.Helper()
	mgr, err := checkpoint.Open(dir, checkpoint.ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	runner, _, err := checkpoint.Start(mgr, checkpoint.RunnerOptions{
		Config: testConfig(false),
		Engine: engOpts(false, 1),
		Every:  every,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fsckSnaps(n, 8) {
		if err := runner.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
}

func newestSnap(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no snapshots in %s: %v", dir, err)
	}
	return matches[len(matches)-1] // zero-padded names sort by generation
}

func walFile(t *testing.T, dir string, gen int) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("wal-%016d.log", gen))
	return path
}

func TestFsckVerdicts(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string)
		// expectations
		healthy    bool
		recoverGen int
		records    int
	}{
		{
			// 12 dumps, cadence 5: snapshots at 5 and 10, WAL 10 holding
			// dumps 11 and 12. Recovery = newest snapshot + its WAL.
			name:    "healthy mid-run state",
			damage:  func(*testing.T, string) {},
			healthy: true, recoverGen: 10, records: 2,
		},
		{
			// Newest snapshot torn mid-write: recovery falls back to
			// generation 5 and replays the whole WAL chain from there —
			// the newer WAL's records are NOT lost — but the operator
			// should know the fallback happened.
			name: "torn newest snapshot falls back a generation",
			damage: func(t *testing.T, dir string) {
				if err := faults.TearFile(newestSnap(t, dir), 1); err != nil {
					t.Fatal(err)
				}
			},
			healthy: false, recoverGen: 5, records: 7,
		},
		{
			// Bit damage in the newest WAL's tail: recovery still resumes
			// from generation 10 but replay truncates at the damaged
			// record — degraded, the tailer must re-ingest the lost Seq.
			name: "corrupt newest WAL tail truncates replay",
			damage: func(t *testing.T, dir string) {
				if err := faults.CorruptTail(walFile(t, dir, 10), 1, 16); err != nil {
					t.Fatal(err)
				}
			},
			healthy: false, recoverGen: 10, records: 1,
		},
		{
			// The newest generation's segment records torn off (disk
			// damage; a crash mid-append leaves the snapshot unrenamed):
			// that generation is invalid, the previous one's shorter
			// prefix still reads, and the WAL chain covers the distance.
			name:    "torn segment falls back a generation",
			damage:  tearSegment,
			healthy: false, recoverGen: 5, records: 7,
		},
		{
			// Damage strictly BEFORE the recovery generation is history:
			// recovery never reads WAL 0 once generation 10 is valid, so
			// the directory still counts as fully intact.
			name: "corrupt pre-recovery WAL is harmless",
			damage: func(t *testing.T, dir string) {
				if err := faults.CorruptTail(walFile(t, dir, 0), 1, 16); err != nil {
					t.Fatal(err)
				}
			},
			healthy: true, recoverGen: 10, records: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			buildFsckState(t, dir, 12, 5)
			tc.damage(t, dir)
			rep, err := checkpoint.Fsck(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Healthy != tc.healthy {
				t.Errorf("Healthy = %v, want %v (report %+v)", rep.Healthy, tc.healthy, rep)
			}
			if rep.RecoverGeneration != tc.recoverGen {
				t.Errorf("RecoverGeneration = %d, want %d", rep.RecoverGeneration, tc.recoverGen)
			}
			if rep.RecoverRecords != tc.records {
				t.Errorf("RecoverRecords = %d, want %d", rep.RecoverRecords, tc.records)
			}
		})
	}
}

func TestFsckEmptyDirIsFreshStart(t *testing.T) {
	rep, err := checkpoint.Fsck(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy || rep.RecoverGeneration != -1 || rep.RecoverRecords != 0 {
		t.Fatalf("empty dir report = %+v, want healthy fresh start", rep)
	}
	if len(rep.Snaps) != 0 || len(rep.WALs) != 0 {
		t.Fatalf("empty dir found files: %+v", rep)
	}
}

// tearSegment cuts the last few bytes off the profile segment, tearing the
// newest generation's last record.
func tearSegment(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "profiles.seg")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
}

// dirFiles maps every file in dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestFsckMatchesRecovery pins that the prediction Fsck prints is what
// Recover actually does: after the newest snapshot or the segment is torn
// the fallback generation loads and every surviving WAL record replays, and
// when no snapshot is usable and GC has removed wal-0 both refuse — the
// WAL chain would start mid-stream — and the directory is left as it was.
func TestFsckMatchesRecovery(t *testing.T) {
	cases := []struct {
		name   string
		dumps  int
		damage func(t *testing.T, dir string)
		refuse string
	}{
		{name: "torn newest snapshot", dumps: 12, damage: func(t *testing.T, dir string) {
			if err := faults.TearFile(newestSnap(t, dir), 3); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "torn segment", dumps: 12, damage: tearSegment},
		{
			// 17 dumps at cadence 5: GC has kept generations 10 and 15
			// and removed wal-0 and wal-5.
			name: "no usable snapshot and wal-0 gone", dumps: 17,
			damage: func(t *testing.T, dir string) {
				matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
				if err != nil || len(matches) != 2 {
					t.Fatalf("want 2 snapshots, have %v (%v)", matches, err)
				}
				for _, m := range matches {
					if err := faults.CorruptTail(m, 1, 16); err != nil {
						t.Fatal(err)
					}
				}
			},
			refuse: "first surviving WAL is generation 10",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			buildFsckState(t, dir, tc.dumps, 5)
			tc.damage(t, dir)
			rep, err := checkpoint.Fsck(dir)
			if err != nil {
				t.Fatal(err)
			}
			before := dirFiles(t, dir)

			mgr, err := checkpoint.Open(dir, checkpoint.ManagerOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			cfg := testConfig(false)
			rec, err := mgr.Recover(&cfg)
			if tc.refuse != "" {
				if err == nil || !strings.Contains(err.Error(), tc.refuse) {
					t.Fatalf("Recover = %v, want a refusal mentioning %q", err, tc.refuse)
				}
				if rep.Refusal != err.Error() || rep.Healthy || rep.RecoverGeneration != -1 {
					t.Errorf("fsck: refusal %q healthy=%v generation %d; Recover refused with %q",
						rep.Refusal, rep.Healthy, rep.RecoverGeneration, err)
				}
				if !reflect.DeepEqual(dirFiles(t, dir), before) {
					t.Error("a refused recovery changed the state directory")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.Refusal != "" {
				t.Errorf("fsck predicted a refusal: %s", rep.Refusal)
			}
			gotGen := -1
			if rec.Snapshot != nil {
				gotGen = rec.Snapshot.Accepted
			}
			if gotGen != rep.RecoverGeneration {
				t.Errorf("Recover used generation %d, fsck predicted %d", gotGen, rep.RecoverGeneration)
			}
			if len(rec.Records) != rep.RecoverRecords {
				t.Errorf("Recover replayed %d records, fsck predicted %d", len(rec.Records), rep.RecoverRecords)
			}
		})
	}
}

// A resumed run's snapshots report the model the run had before the crash:
// resumed and saved before any refresh, the new generation's Meta.K is the
// crashed generation's, not 0.
func TestResumedSaveKeepsModelK(t *testing.T) {
	dir := t.TempDir()
	opts := engOpts(false, 1)
	const every = 10
	snaps := fsckSnaps(30, 8)
	runToCrash(t, dir, false, opts, every, snaps, 25)
	metaK := func(gen int) int {
		t.Helper()
		rep, err := checkpoint.Fsck(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range rep.Snaps {
			if s.Generation == gen && s.Valid {
				return s.Meta.K
			}
		}
		t.Fatalf("no valid snapshot at generation %d", gen)
		return 0
	}
	before := metaK(20)
	if before == 0 {
		t.Fatal("test premise broken: the crashed run's snapshot records no model")
	}

	mgr, err := checkpoint.Open(dir, checkpoint.ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	refreshes := 0
	opts.OnRefresh = func(r stream.Refresh) {
		if !r.Final {
			refreshes++
		}
	}
	runner, _, err := checkpoint.Start(mgr, checkpoint.RunnerOptions{Config: testConfig(false), Engine: opts, Every: every})
	if err != nil {
		t.Fatal(err)
	}
	runner.SetSaveOnFlush(true)
	if err := runner.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if refreshes != 0 {
		t.Fatalf("test premise broken: the resumed run refreshed %d times before its save", refreshes)
	}
	if after := metaK(25); after != before {
		t.Fatalf("resumed save records Meta.K = %d, want the crashed run's %d", after, before)
	}
}
