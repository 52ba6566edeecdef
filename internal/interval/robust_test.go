package interval

import (
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/profile"
)

// snap builds a cumulative snapshot with one function "f" at the given
// counters, for the gap/regression table tests.
func rsnap(seq int, ts time.Duration, samples int64, calls int64) *profile.Sample {
	return &profile.Sample{
		Seq:          seq,
		Timestamp:    ts,
		SamplePeriod: 10 * time.Millisecond,
		Funcs: []profile.FuncRecord{{
			Name:     "f",
			Samples:  samples,
			SelfTime: time.Duration(samples) * 10 * time.Millisecond,
			Calls:    calls,
		}},
	}
}

// robustResult is everything a RobustStream emits over a snapshot list.
type robustResult struct {
	Profiles []Profile
	Gaps     []Gap
}

// robust pushes snaps through a RobustStream in order and collects what it
// emits; the error is the stream's terminal one.
func robust(snaps []*profile.Sample, policy GapPolicy) (*robustResult, error) {
	rs := NewRobustStream(policy)
	b := NewMatrixBuilder(FeatureOptions{})
	res := &robustResult{}
	for _, s := range snaps {
		rs.Push(s, func(g Gap) { res.Gaps = append(res.Gaps, g) }, func(d *Delta) error {
			b.AddCells(d.Start, d.End, d.Repaired, d.Cells, d.Name)
			return nil
		})
	}
	res.Profiles = Profiles(b.Rows())
	return res, rs.Err()
}

func TestRobustMatchesStrictOnCleanStream(t *testing.T) {
	snaps := []*profile.Sample{
		rsnap(0, time.Second, 50, 5),
		rsnap(1, 2*time.Second, 120, 12),
		rsnap(2, 3*time.Second, 130, 13),
	}
	strict, err := Difference(snaps)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []GapPolicy{GapSplit, GapDrop, GapScale} {
		res, err := robust(snaps, policy)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Gaps) != 0 {
			t.Fatalf("policy %v: clean stream produced gaps: %+v", policy, res.Gaps)
		}
		if len(res.Profiles) != len(strict) {
			t.Fatalf("policy %v: %d profiles, strict had %d", policy, len(res.Profiles), len(strict))
		}
		for i := range strict {
			got, want := res.Profiles[i], strict[i]
			if got.Repaired {
				t.Fatalf("policy %v: profile %d marked repaired on clean stream", policy, i)
			}
			if got.Index != want.Index || got.Start != want.Start || got.End != want.End {
				t.Fatalf("policy %v: profile %d bounds %v-%v, want %v-%v", policy, i, got.Start, got.End, want.Start, want.End)
			}
			if got.Self["f"] != want.Self["f"] || got.Calls["f"] != want.Calls["f"] {
				t.Fatalf("policy %v: profile %d values differ: %v vs %v", policy, i, got.Self, want.Self)
			}
		}
	}
}

func TestRobustMissingSeqPolicies(t *testing.T) {
	// Seq 1 and 2 lost: the diff 0->3 spans three intervals with 90
	// samples / 9 calls of combined delta.
	snaps := []*profile.Sample{
		rsnap(0, time.Second, 10, 1),
		rsnap(3, 4*time.Second, 100, 10),
	}

	t.Run("split", func(t *testing.T) {
		res, err := robust(snaps, GapSplit)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Profiles) != 4 {
			t.Fatalf("got %d profiles, want 4 (1 observed + 3 split)", len(res.Profiles))
		}
		if len(res.Gaps) != 1 {
			t.Fatalf("gaps = %+v, want one", res.Gaps)
		}
		g := res.Gaps[0]
		if g.Kind != GapMissing || g.FromSeq != 0 || g.ToSeq != 3 || g.Missing != 2 || g.FirstProfile != 1 {
			t.Fatalf("gap = %+v", g)
		}
		var total time.Duration
		var calls int64
		for i := 1; i < 4; i++ {
			p := res.Profiles[i]
			if !p.Repaired {
				t.Fatalf("split profile %d not marked repaired", i)
			}
			total += p.Self["f"]
			calls += p.Calls["f"]
		}
		if want := 900 * time.Millisecond; total != want {
			t.Fatalf("split self time sums to %v, want %v (conservation)", total, want)
		}
		if calls != 9 {
			t.Fatalf("split calls sum to %d, want 9", calls)
		}
		if res.Profiles[1].Start != time.Second || res.Profiles[3].End != 4*time.Second {
			t.Fatalf("split bounds wrong: %v-%v", res.Profiles[1].Start, res.Profiles[3].End)
		}
	})

	t.Run("drop", func(t *testing.T) {
		res, err := robust(snaps, GapDrop)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Profiles) != 1 {
			t.Fatalf("got %d profiles, want 1 (gap span dropped)", len(res.Profiles))
		}
		if len(res.Gaps) != 1 || res.Gaps[0].FirstProfile != -1 {
			t.Fatalf("gaps = %+v", res.Gaps)
		}
	})

	t.Run("scale", func(t *testing.T) {
		res, err := robust(snaps, GapScale)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Profiles) != 2 {
			t.Fatalf("got %d profiles, want 2", len(res.Profiles))
		}
		p := res.Profiles[1]
		if !p.Repaired {
			t.Fatal("scaled profile not marked repaired")
		}
		if want := 300 * time.Millisecond; p.Self["f"] != want {
			t.Fatalf("scaled self = %v, want %v (average rate)", p.Self["f"], want)
		}
		if p.Calls["f"] != 3 {
			t.Fatalf("scaled calls = %d, want 3", p.Calls["f"])
		}
	})
}

func TestRobustLeadingGap(t *testing.T) {
	// The first two dumps were lost; the stream starts at Seq 2.
	snaps := []*profile.Sample{
		rsnap(2, 3*time.Second, 90, 9),
		rsnap(3, 4*time.Second, 100, 10),
	}
	res, err := robust(snaps, GapSplit)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 4 {
		t.Fatalf("got %d profiles, want 4 (3 split + 1 observed)", len(res.Profiles))
	}
	if len(res.Gaps) != 1 {
		t.Fatalf("gaps = %+v", res.Gaps)
	}
	g := res.Gaps[0]
	if g.FromSeq != -1 || g.ToSeq != 2 || g.Missing != 2 {
		t.Fatalf("leading gap = %+v", g)
	}
	if res.Profiles[3].Repaired {
		t.Fatal("the directly observed interval after the gap must not be repaired")
	}
}

func TestRobustCounterRegressionResyncs(t *testing.T) {
	// The collector restarted between Seq 1 and Seq 2: counters reset but
	// the (virtual) clock kept going. The strict path errors; the robust
	// path must resync instead of producing negative self times.
	snaps := []*profile.Sample{
		rsnap(0, time.Second, 50, 5),
		rsnap(1, 2*time.Second, 120, 12),
		rsnap(2, 3*time.Second, 30, 3), // regressed
		rsnap(3, 4*time.Second, 70, 7),
	}
	if _, err := Difference(snaps); err == nil {
		t.Fatal("strict Difference accepted a counter regression")
	}
	res, err := robust(snaps, GapSplit)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 4 {
		t.Fatalf("got %d profiles, want 4", len(res.Profiles))
	}
	if len(res.Gaps) != 1 || res.Gaps[0].Kind != GapRegression {
		t.Fatalf("gaps = %+v, want one regression", res.Gaps)
	}
	p2 := res.Profiles[2]
	if !p2.Repaired {
		t.Fatal("resynced interval not marked repaired")
	}
	if p2.Self["f"] != 300*time.Millisecond { // 30 samples since restart
		t.Fatalf("resynced self = %v, want 300ms", p2.Self["f"])
	}
	// The pair after the restart diffs normally within the new segment.
	p3 := res.Profiles[3]
	if p3.Repaired || p3.Self["f"] != 400*time.Millisecond {
		t.Fatalf("post-restart interval = repaired=%v self=%v, want unrepaired 400ms", p3.Repaired, p3.Self["f"])
	}
}

func TestRobustTimestampRestartRebases(t *testing.T) {
	// Full restart: both counters and the clock reset. Timestamps must be
	// rebased so Start/End stay monotone.
	snaps := []*profile.Sample{
		rsnap(0, time.Second, 50, 5),
		rsnap(1, 2*time.Second, 120, 12),
		rsnap(2, time.Second, 30, 3), // clock restarted
		rsnap(3, 2*time.Second, 70, 7),
	}
	res, err := robust(snaps, GapSplit)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gaps) != 1 || res.Gaps[0].Kind != GapRegression {
		t.Fatalf("gaps = %+v, want one regression", res.Gaps)
	}
	var prevEnd time.Duration
	for i, p := range res.Profiles {
		if p.Start < prevEnd-1 || p.End < p.Start {
			t.Fatalf("profile %d bounds not monotone: %v-%v after end %v", i, p.Start, p.End, prevEnd)
		}
		prevEnd = p.End
	}
	if got := res.Profiles[2].End; got != 3*time.Second {
		t.Fatalf("rebased end = %v, want 3s", got)
	}
}

func TestRobustDuplicateAndLateSeqsSkipped(t *testing.T) {
	dup := rsnap(1, 2*time.Second, 120, 12)
	snaps := []*profile.Sample{
		rsnap(0, time.Second, 50, 5),
		rsnap(1, 2*time.Second, 120, 12),
		dup,                          // duplicate delivery
		rsnap(0, time.Second, 50, 5), // late re-delivery of Seq 0
		rsnap(2, 3*time.Second, 130, 13),
	}
	res, err := robust(snaps, GapSplit)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 3 {
		t.Fatalf("got %d profiles, want 3", len(res.Profiles))
	}
	kinds := map[GapKind]int{}
	for _, g := range res.Gaps {
		kinds[g.Kind]++
	}
	if kinds[GapDuplicate] != 1 || kinds[GapLate] != 1 {
		t.Fatalf("gap kinds = %v, want one duplicate and one late", kinds)
	}
	for i, p := range res.Profiles {
		if p.Repaired {
			t.Fatalf("profile %d repaired; duplicates must not poison neighbors", i)
		}
	}
	if res.Profiles[2].Self["f"] != 100*time.Millisecond {
		t.Fatalf("interval after duplicate = %v, want 100ms", res.Profiles[2].Self["f"])
	}
}

func TestRobustSamplePeriodChangeResyncs(t *testing.T) {
	changed := rsnap(2, 3*time.Second, 130, 13)
	changed.SamplePeriod = 20 * time.Millisecond
	snaps := []*profile.Sample{
		rsnap(0, time.Second, 50, 5),
		rsnap(1, 2*time.Second, 120, 12),
		changed,
	}
	res, err := robust(snaps, GapSplit)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gaps) != 1 || res.Gaps[0].Kind != GapPeriodChange {
		t.Fatalf("gaps = %+v, want one period-change", res.Gaps)
	}
	if !res.Profiles[2].Repaired {
		t.Fatal("period-change interval not marked repaired")
	}
}

func TestRobustEmptyAndAllUnusable(t *testing.T) {
	if _, err := robust(nil, GapSplit); err != nil {
		t.Fatalf("a stream with nothing pushed reports %v; it is healthy while empty", err)
	}
	if _, err := robust([]*profile.Sample{nil, nil}, GapSplit); err == nil {
		t.Fatal("expected error for all-nil input")
	}
}

func TestEachCounterRegressionFailsStrictAndResyncsRobust(t *testing.T) {
	// StrictPair and the robust kernel share one regression predicate, so a
	// fall in any single cumulative counter must be a strict error naming
	// the function and a robust resync, never one without the other.
	for _, tc := range []struct {
		name string
		fall func(*profile.FuncRecord)
	}{
		{"samples", func(r *profile.FuncRecord) { r.Samples-- }},
		{"self", func(r *profile.FuncRecord) { r.SelfTime-- }},
		{"calls", func(r *profile.FuncRecord) { r.Calls-- }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := snap(0, time.Second,
				profile.FuncRecord{Name: "a", Samples: 10, SelfTime: 100 * time.Millisecond, Calls: 4},
				profile.FuncRecord{Name: "b", Samples: 20, SelfTime: 200 * time.Millisecond, Calls: 8},
			)
			next := prev.Clone()
			next.Seq, next.Timestamp = 1, 2*time.Second
			next.Funcs[0].Samples += 5 // a advances, b regresses
			tc.fall(&next.Funcs[1])

			_, err := StrictPair(prev, next, nil)
			if err == nil || !strings.Contains(err.Error(), `"b" regressed`) {
				t.Fatalf("StrictPair error = %v, want a regression of \"b\"", err)
			}
			res, err := robust([]*profile.Sample{prev, next}, GapSplit)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Gaps) != 1 || res.Gaps[0].Kind != GapRegression || !res.Profiles[1].Repaired {
				t.Fatalf("gaps = %+v, repaired = %v; want one regression resync", res.Gaps, res.Profiles[1].Repaired)
			}
		})
	}
}

func TestRegressionCheckPairsRecordsByName(t *testing.T) {
	// The two name-sorted Funcs lists need not hold the same functions: a
	// function new in the later dump starts from zero, and one absent from
	// it is not a regression. Only the function whose own record fell is
	// reported, whatever its neighbours in either list.
	prev := snap(0, time.Second,
		profile.FuncRecord{Name: "b", Samples: 5, Calls: 1},
		profile.FuncRecord{Name: "d", Samples: 9, Calls: 3},
		profile.FuncRecord{Name: "f", Samples: 7, Calls: 2},
	)
	grown := snap(1, 2*time.Second,
		profile.FuncRecord{Name: "a", Samples: 1, Calls: 1},
		profile.FuncRecord{Name: "c", Samples: 2, Calls: 1},
		profile.FuncRecord{Name: "d", Samples: 9, Calls: 3},
		profile.FuncRecord{Name: "e", Samples: 4, Calls: 1},
	)
	if _, err := StrictPair(prev, grown, nil); err != nil {
		t.Fatalf("new and vanished functions read as a regression: %v", err)
	}
	fell := snap(1, 2*time.Second,
		profile.FuncRecord{Name: "a", Samples: 1, Calls: 1},
		profile.FuncRecord{Name: "d", Samples: 9, Calls: 3},
		profile.FuncRecord{Name: "e", Samples: 4, Calls: 1},
		profile.FuncRecord{Name: "f", Samples: 6, Calls: 2},
	)
	_, err := StrictPair(prev, fell, nil)
	if err == nil || !strings.Contains(err.Error(), `"f" regressed`) {
		t.Fatalf("StrictPair error = %v, want a regression of \"f\"", err)
	}
}
