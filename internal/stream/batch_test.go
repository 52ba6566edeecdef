package stream_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/online"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

// batchRun is what an engine fed in passes of batches reported: every
// intermediate refresh, and for each pass how many refreshes it ran.
type batchRun struct {
	refreshes []stream.Refresh // intermediate ones, in order
	final     *stream.Result
	perPass   []int
}

// runPasses feeds snaps to a fresh engine as passes of batches,
// passes[p][b] dumps per EmitBatch and one EndPass after each pass, each
// batch a copy so the engine's slot clearing leaves snaps intact. A refresh
// anywhere but in an EndPass fails the test.
func runPasses(t *testing.T, snaps []*profile.Sample, passes [][]int, popts phase.Options, every int) batchRun {
	t.Helper()
	var run batchRun
	inEnd := false
	eng := stream.New(stream.Options{
		Phase:        popts,
		RefreshEvery: every,
		OnLabel:      func(online.Event) {},
		OnRefresh: func(r stream.Refresh) {
			if r.Final {
				return
			}
			if !inEnd {
				t.Fatalf("refresh %d over %d intervals ran inside a pass", r.Index, r.Intervals)
			}
			run.refreshes = append(run.refreshes, r)
			run.perPass[len(run.perPass)-1]++
		},
	})
	lo := 0
	for _, pass := range passes {
		run.perPass = append(run.perPass, 0)
		for _, n := range pass {
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
		inEnd = true
		if err := eng.EndPass(); err != nil {
			t.Fatal(err)
		}
		inEnd = false
	}
	r, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	run.final = r
	return run
}

// FuzzBatchedRefreshesMatchDetect splits a random phase stream into random
// batches, grouped into random directory passes, and checks the pass
// refresh cadence: a refresh runs only at a pass's end, exactly when the
// pass brings the count since the last one to the cadence; every
// intermediate refresh's model is the batch analysis of its prefix on
// phase.RefreshRows (checkModel); passes of one single-dump batch
// reproduce Emit's refresh sequence; and the final detection is the batch
// phase.Detect.
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
		var passes [][]int
		for left := len(snaps); left > 0; {
			var pass []int
			for b := 1 + rng.Intn(4); b > 0 && left > 0; b-- {
				k := min(left, 1+rng.Intn(1+int(maxBatch)%64))
				pass = append(pass, k)
				left -= k
			}
			passes = append(passes, pass)
		}
		run := runPasses(t, snaps, passes, popts, re)

		var wantAt []int // the interval counts refreshes should cover
		since, total := 0, 0
		for _, pass := range passes {
			for _, k := range pass {
				since += k
				total += k
			}
			if since >= re {
				wantAt = append(wantAt, total)
				since = 0
			}
		}
		if len(run.refreshes) != len(wantAt) {
			t.Fatalf("%d refreshes over passes %v, want %d at %v", len(run.refreshes), passes, len(wantAt), wantAt)
		}
		for i, r := range run.refreshes {
			if r.Intervals != wantAt[i] {
				t.Fatalf("refresh %d covers %d intervals, want %d (passes %v)", i, r.Intervals, wantAt[i], passes)
			}
			checkModel(t, profs, r, popts)
		}
		for p, c := range run.perPass {
			if c > 1 {
				t.Fatalf("pass %d (batches %v) ran %d refreshes", p, passes[p], c)
			}
		}

		batch, err := phase.Detect(profs, popts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flatten(t, run.final.Detection, run.final.Gaps), flatten(t, batch, nil)) {
			t.Fatal("final detection after batches differs from batch Detect")
		}

		ones := make([][]int, len(snaps))
		for i := range ones {
			ones[i] = []int{1}
		}
		byOne := runPasses(t, snaps, ones, popts, re)
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
			t.Fatalf("single-dump passes ran %d refreshes, Emit %d", len(byOne.refreshes), len(byEmit))
		}
		for i := range byEmit {
			if a, b := byOne.refreshes[i], byEmit[i]; !reflect.DeepEqual(a, b) {
				t.Fatalf("refresh %d: single-dump passes (%d intervals) differ from Emit (%d intervals)", i, a.Intervals, b.Intervals)
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
