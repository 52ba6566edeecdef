package stream_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/online"
	"github.com/incprof/incprof/internal/stream"
)

// feedRest drives both engines through the same tail of a stream and
// compares their terminal flattenings.
func finishBoth(t *testing.T, a, b *stream.Engine, tail []*profile.Sample) {
	t.Helper()
	for _, s := range tail {
		if err := a.Emit(s); err != nil {
			t.Fatal(err)
		}
		if err := b.Emit(s.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	ra, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ga := flatten(t, ra.Detection, ra.Gaps)
	gb := flatten(t, rb.Detection, rb.Gaps)
	if !bytes.Equal(ga, gb) {
		t.Fatalf("restored engine diverged from original (%d vs %d bytes)", len(gb), len(ga))
	}
	if ra.LateDrops != rb.LateDrops {
		t.Fatalf("LateDrops %d != %d after restore", rb.LateDrops, ra.LateDrops)
	}
}

// jsonRoundTrip pushes the state through its serialized form, as the
// checkpoint layer does, so drift between the struct and its encoding shows
// up here and not only in the durability suite.
func jsonRoundTrip(t *testing.T, st *stream.EngineState) *stream.EngineState {
	t.Helper()
	buf, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var out stream.EngineState
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// State/Restore mid-stream: the restored engine finishes byte-identically
// to the original continuing from the same point, with live labels and
// periodic refreshes on so tracker and refresh-cadence state both matter.
func TestEngineStateRestoreMidStreamBitIdentity(t *testing.T) {
	snaps := collect(t, "graph500")
	for _, cut := range []int{1, 7, len(snaps) / 2, len(snaps) - 1} {
		opts := stream.Options{
			Phase:        baseOpts(),
			RefreshEvery: 5,
			OnLabel:      func(online.Event) {},
		}
		a := stream.New(opts)
		for _, s := range snaps[:cut] {
			if err := a.Emit(s); err != nil {
				t.Fatal(err)
			}
		}
		st, err := a.State()
		if err != nil {
			t.Fatal(err)
		}
		b, err := stream.Restore(opts, jsonRoundTrip(t, st))
		if err != nil {
			t.Fatal(err)
		}
		finishBoth(t, a, b, snaps[cut:])
	}
}

// Robust mode with gaps pending: restore preserves the robust differencer's
// prev snapshot, timestamp offset, and gap history.
func TestEngineStateRestoreRobustWithGaps(t *testing.T) {
	snaps := faultySnaps(3, 40)
	opts := stream.Options{Robust: true, Phase: baseOpts(), RefreshEvery: 9}
	a := stream.New(opts)
	for _, s := range snaps[:20] {
		if err := a.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	st, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	b, err := stream.Restore(opts, jsonRoundTrip(t, st))
	if err != nil {
		t.Fatal(err)
	}
	finishBoth(t, a, b, snaps[20:])
}

// A reorder window with snapshots still pending restores exactly: the
// restored engine releases them in the same order, including the
// arrival-order tie-break between equal Seqs.
func TestEngineStateRestorePendingReorderWindow(t *testing.T) {
	period := 10 * time.Millisecond
	mk := func(seq int, samples int64) *profile.Sample {
		return snap(seq, time.Duration(seq+1)*time.Second, period, map[string][2]int64{"a": {samples, samples / 10}})
	}
	// Out-of-order arrivals that leave seqs 3 and 2 pending in the window.
	feedA := []*profile.Sample{mk(0, 100), mk(1, 200), mk(3, 400), mk(2, 300)}
	tail := []*profile.Sample{mk(4, 500), mk(5, 600)}

	opts := stream.Options{Robust: true, Reorder: 4, Phase: baseOpts()}
	a := stream.New(opts)
	for _, s := range feedA {
		if err := a.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	st, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Differencer.Window) == 0 {
		t.Fatal("test premise broken: reorder window empty at cut point")
	}
	b, err := stream.Restore(opts, jsonRoundTrip(t, st))
	if err != nil {
		t.Fatal(err)
	}
	finishBoth(t, a, b, tail)
}

// State after Flush is an error — the incremental state is gone.
func TestEngineStateAfterFlushErrors(t *testing.T) {
	eng := stream.New(stream.Options{Phase: baseOpts()})
	for _, s := range phaseSnaps(4) {
		if err := eng.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.State(); err == nil {
		t.Fatal("State after Flush did not error")
	}
}

// Restore refuses a state whose differencing mode disagrees with the
// options — resuming a robust stream through a strict engine (or vice
// versa) would silently change the analysis.
func TestEngineStateRestoreModeMismatch(t *testing.T) {
	eng := stream.New(stream.Options{Robust: true, Phase: baseOpts()})
	for _, s := range phaseSnaps(4) {
		if err := eng.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	st, err := eng.State()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Restore(stream.Options{Phase: baseOpts()}, st); err == nil {
		t.Fatal("mode mismatch not rejected")
	}
}

// Strict mode surfaces a bounded-window drop as a clear error naming the
// window, not a confusing timestamp failure; robust mode absorbs it as a
// GapLate and counts it.
func TestLateDropSurfacing(t *testing.T) {
	period := 10 * time.Millisecond
	mk := func(seq int, samples int64) *profile.Sample {
		return snap(seq, time.Duration(seq+1)*time.Second, period, map[string][2]int64{"a": {samples, 1}})
	}

	t.Run("strict", func(t *testing.T) {
		eng := stream.New(stream.Options{Reorder: 1, Phase: baseOpts()})
		for _, s := range []*profile.Sample{mk(0, 100), mk(1, 200), mk(2, 300), mk(3, 400)} {
			if err := eng.Emit(s); err != nil {
				t.Fatal(err)
			}
		}
		// Seq 0 already released past a window of 1: late.
		err := eng.Emit(mk(0, 100))
		if err == nil || !strings.Contains(err.Error(), "reorder") {
			t.Fatalf("late arrival error = %v, want mention of the reorder window", err)
		}
		st, err := eng.State()
		if err != nil {
			t.Fatal(err)
		}
		if st.Differencer.LateDrops != 1 {
			t.Fatalf("LateDrops = %d, want 1", st.Differencer.LateDrops)
		}
	})

	t.Run("robust", func(t *testing.T) {
		eng := stream.New(stream.Options{Robust: true, Reorder: 1, Phase: baseOpts()})
		for _, s := range []*profile.Sample{mk(0, 100), mk(1, 200), mk(2, 300), mk(3, 400), mk(0, 100), mk(4, 500)} {
			if err := eng.Emit(s); err != nil {
				t.Fatal(err)
			}
		}
		r, err := eng.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if r.LateDrops != 1 {
			t.Fatalf("LateDrops = %d, want 1", r.LateDrops)
		}
		late := 0
		for _, g := range r.Gaps {
			if g.Kind.String() == "late" {
				late++
			}
		}
		if late != 1 {
			t.Fatalf("late gaps = %d, want 1 (gaps: %+v)", late, r.Gaps)
		}
	})
}
