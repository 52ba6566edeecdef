package stream_test

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/online"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

// batchRun is what an engine fed in batches reported: every refresh, and
// for each batch how many refreshes it ran.
type batchRun struct {
	refreshes []stream.Refresh // intermediate ones, in order
	final     *stream.Result
	perBatch  []int
}

// runBatches feeds snaps to a fresh engine, sizes[i] dumps per EmitBatch,
// each batch a copy so the engine's slot clearing leaves snaps intact.
func runBatches(t *testing.T, snaps []*profile.Sample, sizes []int, popts phase.Options, every int) batchRun {
	t.Helper()
	var run batchRun
	eng := stream.New(stream.Options{
		Phase:        popts,
		RefreshEvery: every,
		OnLabel:      func(online.Event) {},
		OnRefresh: func(r stream.Refresh) {
			if !r.Final {
				run.refreshes = append(run.refreshes, r)
				run.perBatch[len(run.perBatch)-1]++
			}
		},
	})
	lo := 0
	for _, n := range sizes {
		run.perBatch = append(run.perBatch, 0)
		batch := append([]*profile.Sample(nil), snaps[lo:lo+n]...)
		if err := eng.EmitBatch(batch); err != nil {
			t.Fatal(err)
		}
		for i, s := range batch {
			if s != nil {
				t.Fatalf("batch slot %d still holds seq %d after EmitBatch", i, s.Seq)
			}
		}
		lo += n
	}
	r, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	run.final = r
	return run
}

// FuzzBatchedRefreshesMatchDetect splits a random phase stream into random
// batches and checks the batch refresh cadence: every intermediate refresh
// is phase.DetectMatrix over its prefix and phase.RefreshRows, byte for
// byte; a batch runs at most one refresh, exactly when it brings the count
// since the last one to the cadence; batches of one reproduce Emit's
// refresh sequence; and the final detection is the batch phase.Detect.
func FuzzBatchedRefreshesMatchDetect(f *testing.F) {
	f.Add(int64(1), uint8(70), uint8(3), uint8(12))
	f.Add(int64(7), uint8(130), uint8(0), uint8(64))
	f.Add(int64(42), uint8(9), uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, every, maxBatch uint8) {
		snaps := randomPhaseSnaps(seed, 2+int(n)%140)
		re := 1 + int(every)%8
		popts := baseOpts()
		profs, err := interval.Difference(snaps)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
		var sizes []int
		for left := len(snaps); left > 0; {
			k := min(left, 1+rng.Intn(1+int(maxBatch)%64))
			sizes = append(sizes, k)
			left -= k
		}
		run := runBatches(t, snaps, sizes, popts, re)

		var wantAt []int // the interval counts refreshes should cover
		since, total := 0, 0
		for _, k := range sizes {
			since += k
			total += k
			if since >= re {
				wantAt = append(wantAt, total)
				since = 0
			}
		}
		if len(run.refreshes) != len(wantAt) {
			t.Fatalf("%d refreshes over batches %v, want %d at %v", len(run.refreshes), sizes, len(wantAt), wantAt)
		}
		for i, r := range run.refreshes {
			if r.Intervals != wantAt[i] {
				t.Fatalf("refresh %d covers %d intervals, want %d (batches %v)", i, r.Intervals, wantAt[i], sizes)
			}
			prefix := profs[:r.Intervals]
			want, err := phase.DetectMatrix(prefix, interval.FeaturesCSR(prefix, popts.Features),
				phase.RefreshRows(r.Intervals, popts.Cluster.Seed), popts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(flatten(t, r.Detection, nil), flatten(t, want, nil)) {
				t.Fatalf("refresh %d over %d intervals differs from DetectMatrix over the prefix", i, r.Intervals)
			}
		}
		for b, c := range run.perBatch {
			if c > 1 {
				t.Fatalf("batch %d (%d dumps) ran %d refreshes", b, sizes[b], c)
			}
		}

		batch, err := phase.Detect(profs, popts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flatten(t, run.final.Detection, run.final.Gaps), flatten(t, batch, nil)) {
			t.Fatal("final detection after batches differs from batch Detect")
		}

		ones := make([]int, len(snaps))
		for i := range ones {
			ones[i] = 1
		}
		byOne := runBatches(t, snaps, ones, popts, re)
		var byEmit []stream.Refresh
		eng := stream.New(stream.Options{
			Phase:        popts,
			RefreshEvery: re,
			OnLabel:      func(online.Event) {},
			OnRefresh: func(r stream.Refresh) {
				if !r.Final {
					byEmit = append(byEmit, r)
				}
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
		if len(byOne.refreshes) != len(byEmit) {
			t.Fatalf("batches of one ran %d refreshes, Emit %d", len(byOne.refreshes), len(byEmit))
		}
		for i := range byEmit {
			a, b := byOne.refreshes[i], byEmit[i]
			if a.Index != b.Index || a.Intervals != b.Intervals || a.Clustered != b.Clustered ||
				!bytes.Equal(flatten(t, a.Detection, nil), flatten(t, b.Detection, nil)) {
				t.Fatalf("refresh %d: batches of one (%d intervals) differ from Emit (%d intervals)", i, a.Intervals, b.Intervals)
			}
		}
	})
}

// In robust mode one dump can release several intervals (a gap split).
// The refresh waits for the end of the dump, or the batch, that brought
// the count to the cadence instead of running in the middle of it.
func TestRobustRefreshRunsAfterTheDump(t *testing.T) {
	snaps := phaseSnaps(12)
	// Lose seqs 4..6: seq 7 arrives three dumps late and GapSplit repairs
	// the span into four intervals, all released by that one dump.
	kept := append(append([]*profile.Sample(nil), snaps[:4]...), snaps[7:]...)
	var at []int
	eng := stream.New(stream.Options{
		Robust:       true,
		Phase:        baseOpts(),
		RefreshEvery: 5,
		OnRefresh: func(r stream.Refresh) {
			if !r.Final {
				at = append(at, r.Intervals)
			}
		},
	})
	for _, s := range kept {
		if err := eng.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gaps) == 0 {
		t.Fatal("the lost span produced no gap")
	}
	// Dumps 0..3 release 4 intervals; seq 7 releases 4 more (8 in all), so
	// the first refresh covers 8, not 5.
	if len(at) == 0 || at[0] != 8 {
		t.Fatalf("refreshes at %v intervals, want the first at 8", at)
	}
}
