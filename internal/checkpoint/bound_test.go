// What a save costs and what a damaged segment costs: a save writes the
// state plus the profiles accepted since the previous save, so its size
// does not grow with the run's history, and a torn profile segment
// invalidates only the generations that name the torn bytes.
package checkpoint_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/incprof/incprof/internal/checkpoint"
	"github.com/incprof/incprof/internal/faults"
	"github.com/incprof/incprof/internal/online"
)

func sizeOf(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestSaveBytesGrowWithStateNotHistory drives 451 dumps through a durable
// runner (live labels on, as phasedetect -follow runs) and measures what
// each save writes: the new snapshot file plus the segment's growth. From
// the second save to the last that may grow by at most 16 bytes per
// interval of history, at the CLI's default refresh cadence and at a sparse
// one. With the profiles in the snapshot it grew by about 2,000; with a
// per-phase site-selection memo in the engine state, by 92 at a refresh
// every 10 intervals.
func TestSaveBytesGrowWithStateNotHistory(t *testing.T) {
	const every = 50
	for _, refresh := range []int{50, 10} {
		t.Run(fmt.Sprintf("refresh=%d", refresh), func(t *testing.T) {
			dir := t.TempDir()
			opts := engOpts(false, 1)
			opts.RefreshEvery = refresh
			opts.OnLabel = func(online.Event) {}
			mgr, err := checkpoint.Open(dir, checkpoint.ManagerOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			runner, _, err := checkpoint.Start(mgr, checkpoint.RunnerOptions{Config: testConfig(false), Engine: opts, Every: every})
			if err != nil {
				t.Fatal(err)
			}
			var written []int64
			var segBefore int64
			for i, s := range fsckSnaps(451, 8) {
				if err := runner.Emit(s); err != nil {
					t.Fatal(err)
				}
				if (i+1)%every != 0 {
					continue
				}
				seg := sizeOf(t, filepath.Join(dir, "profiles.seg"))
				written = append(written, sizeOf(t, newestSnap(t, dir))+seg-segBefore)
				segBefore = seg
			}
			first, last := written[1], written[len(written)-1]
			intervals := float64((len(written) - 2) * every)
			perInterval := float64(last-first) / intervals
			t.Logf("save writes %d bytes at 99 intervals, %d at 449: %.1f B per interval of history", first, last, perInterval)
			if perInterval > 16 {
				t.Fatalf("save size grows by %.1f B per interval of history, want at most 16", perInterval)
			}
		})
	}
}

// TestTornSegmentFallsBackAndStaysBitIdentical damages the newest
// generation's segment records — cut off, or a flipped byte — and resumes:
// recovery falls back to the previous generation, whose prefix is intact,
// replays the WAL chain, and the report stays byte-identical.
func TestTornSegmentFallsBackAndStaysBitIdentical(t *testing.T) {
	snaps := collect(t, "minife")
	opts := engOpts(false, 0)
	want := golden(t, snaps, opts)
	const every = 4
	crashAt := 2*every + 2 // two generations, WAL records after the second
	damage := map[string]func(path string) error{
		"torn tail": func(path string) error {
			info, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, info.Size()-3)
		},
		"flipped byte": func(path string) error { return faults.CorruptTail(path, 5, 8) },
	}
	for name, damage := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			runToCrash(t, dir, false, opts, every, snaps, crashAt)
			if err := damage(filepath.Join(dir, "profiles.seg")); err != nil {
				t.Fatal(err)
			}
			rep, err := checkpoint.Fsck(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Healthy || rep.RecoverGeneration != every {
				t.Fatalf("fsck: healthy=%v generation %d, want a fallback to %d", rep.Healthy, rep.RecoverGeneration, every)
			}
			got := resumeAndFinish(t, dir, false, opts, every, snaps)
			if !bytes.Equal(got, want) {
				t.Fatal("resumed report diverged after torn-segment fallback")
			}
		})
	}
}
