package stream_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/online"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
	"github.com/incprof/incprof/internal/xmath"
)

// refLabels applies the live labelling rule to profs from outside the
// engine. Interval i is labelled against the model of the last refresh in
// refs that covers at most i intervals, over the row interval.FeaturesCSR
// gives interval i in the prefix profs[:i+1]. The model's centroids are
// mapped onto that row's columns by function name and numbered by first
// occurrence in Assign; the provisional phases founded since follow them.
func refLabels(profs []interval.Profile, refs []stream.Refresh, popts phase.Options) []online.Event {
	type cand map[string]float64 // centroid value by column name
	var cands []cand
	prev, next := -1, 0
	out := make([]online.Event, len(profs))
	for i := range profs {
		for next < len(refs) && refs[next].Intervals <= i {
			r := refs[next]
			next++
			names := interval.FeaturesCSR(profs[:r.Intervals], popts.Features).FuncNames
			var order []int
			seen := map[int]bool{}
			for _, c := range r.Model.Assign {
				if c >= 0 && !seen[c] {
					seen[c] = true
					order = append(order, c)
				}
			}
			for c := range r.Model.Centroids {
				if !seen[c] {
					order = append(order, c)
				}
			}
			cands = nil
			for _, c := range order {
				cd := cand{}
				for j, v := range r.Model.Centroids[c] {
					cd[names[j]] = v
				}
				cands = append(cands, cd)
			}
			prev = -1
		}
		m := interval.FeaturesCSR(profs[:i+1], popts.Features)
		vals, cols := m.Sparse.Row(i)
		best, bestD := -1, math.Inf(1)
		for c, cd := range cands {
			dense := make([]float64, len(m.FuncNames))
			for j, fn := range m.FuncNames {
				dense[j] = cd[fn]
			}
			if d := xmath.SquaredEuclideanPackedDense(vals, cols, dense); d < bestD {
				best, bestD = c, d
			}
		}
		repaired := profs[i].Repaired
		ev := online.Event{Interval: i, LowConfidence: repaired}
		if d := math.Sqrt(bestD); best == -1 || (!repaired && d > 0.35 && len(cands) < 16) {
			cd := cand{}
			for t, c := range cols {
				cd[m.FuncNames[c]] = vals[t]
			}
			best = len(cands)
			cands = append(cands, cd)
			ev.NewPhase = true
		} else {
			ev.Distance = d
		}
		ev.Phase = best
		ev.Transition = prev != -1 && best != prev
		prev = best
		out[i] = ev
	}
	return out
}

// checkLabels demands that the engine's live labels equal refLabels.
func checkLabels(t *testing.T, got []online.Event, profs []interval.Profile, refs []stream.Refresh, popts phase.Options) {
	t.Helper()
	want := refLabels(profs, refs, popts)
	if len(got) != len(want) {
		t.Fatalf("%d live labels for %d intervals", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("interval %d: live label %+v, want %+v", i, got[i], want[i])
		}
	}
}

// selfSnaps builds cumulative snapshots whose intervals carry the given
// self seconds per function, in hundredths (10 ms samples).
func selfSnaps(rows []map[string]float64) []*profile.Sample {
	period := 10 * time.Millisecond
	cum := map[string][2]int64{}
	out := make([]*profile.Sample, len(rows))
	for i, row := range rows {
		for fn, sec := range row {
			c := cum[fn]
			c[0] += int64(math.Round(sec * 100))
			c[1]++
			cum[fn] = c
		}
		out[i] = snap(i, time.Duration(i+1)*time.Second, period, cloneCounters(cum))
	}
	return out
}

// labelRun feeds snaps one Emit at a time and returns the live labels and
// the intermediate refreshes.
func labelRun(t *testing.T, opts stream.Options, snaps []*profile.Sample) ([]online.Event, []stream.Refresh) {
	t.Helper()
	var events []online.Event
	var refs []stream.Refresh
	opts.OnLabel = func(ev online.Event) { events = append(events, ev) }
	opts.OnRefresh = func(r stream.Refresh) {
		if !r.Final {
			refs = append(refs, r)
		}
	}
	eng := stream.New(opts)
	for _, s := range snaps {
		if err := eng.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	return events, refs
}

// Before any refresh, an interval within 0.35 of a phase's founding row
// joins it, one farther founds the next phase, and once 16 phases exist
// every interval joins its nearest one.
func TestLiveFoundingThresholdAndCap(t *testing.T) {
	rows := []map[string]float64{{"f": 1}, {"f": 1.34}, {"f": 1.36}}
	for v := 3; len(rows) < 17; v++ {
		rows = append(rows, map[string]float64{"f": float64(v)})
	}
	rows = append(rows, map[string]float64{"f": 20})
	events, _ := labelRun(t, stream.Options{Phase: baseOpts()}, selfSnaps(rows))
	for i, want := range []online.Event{
		{Interval: 0, Phase: 0, NewPhase: true},
		{Interval: 1, Phase: 0, Distance: events[1].Distance},
		{Interval: 2, Phase: 1, NewPhase: true, Transition: true},
	} {
		if events[i] != want {
			t.Fatalf("interval %d: %+v, want %+v", i, events[i], want)
		}
	}
	if d := events[1].Distance; math.Abs(d-0.34) > 1e-9 {
		t.Fatalf("interval 1 joined at distance %v, want 0.34", d)
	}
	for i := 3; i < 17; i++ {
		if ev := events[i]; !ev.NewPhase || ev.Phase != i-1 {
			t.Fatalf("interval %d: %+v, want it to found phase %d", i, ev, i-1)
		}
	}
	if ev := events[17]; ev.NewPhase || ev.Phase != 15 || math.Abs(ev.Distance-4) > 1e-9 {
		t.Fatalf("interval past the cap: %+v, want it to join phase 15 at distance 4", ev)
	}
}

// A refresh drops the provisional phases: the state holds none right after
// it, and the next interval far from every model cluster founds phase K of
// the new model, not one past the dropped phases.
func TestLiveProvisionalPhasesDroppedAtRefresh(t *testing.T) {
	var rows []map[string]float64
	for i := 0; i < 10; i++ {
		rows = append(rows, map[string]float64{"a": 1})
	}
	for i := 0; i < 5; i++ {
		rows = append(rows, map[string]float64{"b": 1})
	}
	for i := 0; i < 5; i++ {
		rows = append(rows, map[string]float64{"a": 1})
	}
	rows = append(rows, map[string]float64{"c": 1})
	snaps := selfSnaps(rows)

	var events []online.Event
	var ks []int
	eng := stream.New(stream.Options{
		Phase:        baseOpts(),
		RefreshEvery: 10,
		OnLabel:      func(ev online.Event) { events = append(events, ev) },
		OnRefresh: func(r stream.Refresh) {
			if !r.Final {
				ks = append(ks, r.K)
			}
		},
	})
	provisional := func() int {
		st, err := eng.State()
		if err != nil {
			t.Fatal(err)
		}
		return len(st.Provisional)
	}
	for i, s := range snaps {
		if err := eng.Emit(s); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 9:
			if len(ks) != 1 || provisional() != 0 {
				t.Fatalf("after the first refresh: %d refreshes, %d provisional phases", len(ks), provisional())
			}
		case 14:
			if ev := events[10]; !ev.NewPhase || ev.Phase != ks[0] || provisional() != 1 {
				t.Fatalf("phase b: %+v with %d provisional, want it to found phase %d", ev, provisional(), ks[0])
			}
		case 19:
			if len(ks) != 2 || provisional() != 0 {
				t.Fatalf("after the second refresh: %d refreshes, %d provisional phases", len(ks), provisional())
			}
		}
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	if ev := events[20]; !ev.NewPhase || ev.Phase != ks[1] {
		t.Fatalf("phase c after the second refresh: %+v, want it to found phase %d", ev, ks[1])
	}
}

// Model clusters are numbered by first occurrence among the rows the model
// was fitted on. Phase c shows once at an interval phase.RefreshRows leaves
// out, before phase b's run, and again after it: over every row c would be
// phase 1, over the sampled rows it is phase 2.
func TestLiveIDsFollowFirstSampledOccurrence(t *testing.T) {
	const n = 400
	popts := baseOpts()
	sampled := map[int]bool{}
	for _, r := range phase.RefreshRows(n, popts.Cluster.Seed) {
		sampled[r] = true
	}
	lone := -1
	for i := 1; i < 100 && lone < 0; i++ {
		if !sampled[i] {
			lone = i
		}
	}
	if lone < 0 {
		t.Fatal("test premise broken: RefreshRows samples every interval below 100")
	}
	var rows []map[string]float64
	for i := 0; i < n; i++ {
		fn := "a"
		switch {
		case i == lone || i >= 250:
			fn = "c"
		case i >= 100:
			fn = "b"
		}
		rows = append(rows, map[string]float64{fn: 1})
	}
	rows = append(rows, map[string]float64{"a": 1}, map[string]float64{"b": 1}, map[string]float64{"c": 1})
	events, refs := labelRun(t, stream.Options{Phase: popts, RefreshEvery: n}, selfSnaps(rows))
	if len(refs) != 1 || refs[0].K != 3 || refs[0].Clustered != 384 {
		t.Fatalf("test premise broken: refreshes %+v, want one with k=3 over 384 sampled rows", refs)
	}
	if events[lone].Phase != 1 {
		t.Fatalf("before the refresh, the lone c interval founded phase %d, want 1", events[lone].Phase)
	}
	for j, want := range []int{0, 1, 2} {
		if got := events[n+j].Phase; got != want {
			t.Fatalf("after the refresh, phase %q labels as %d, want %d", "abc"[j:j+1], got, want)
		}
	}
}

// Repaired intervals carry LowConfidence and never found a phase while one
// exists, however far they lie from it; the labels equal the reference rule
// and there is one low-confidence label per repaired interval.
func TestEngineLabelsMatchModelIncludingLowConfidence(t *testing.T) {
	period := 10 * time.Millisecond
	snaps := []*profile.Sample{
		snap(0, time.Second, period, map[string][2]int64{"a": {100, 10}}),
		snap(1, 2*time.Second, period, map[string][2]int64{"a": {200, 20}}),
		// Seqs 2-3 lost: split repair synthesizes low-confidence intervals
		// 3 s of b away from phase a.
		snap(4, 5*time.Second, period, map[string][2]int64{"a": {200, 20}, "b": {900, 30}}),
		snap(5, 6*time.Second, period, map[string][2]int64{"a": {200, 20}, "b": {1200, 40}}),
	}
	profiles, _, err := robustKernel(snaps, interval.GapSplit)
	if err != nil {
		t.Fatal(err)
	}
	repaired := 0
	for _, p := range profiles {
		if p.Repaired {
			repaired++
		}
	}
	if repaired == 0 {
		t.Fatal("test premise broken: no repaired profiles")
	}
	events, refs := labelRun(t, stream.Options{Robust: true, Phase: baseOpts()}, snaps)
	checkLabels(t, events, profiles, refs, baseOpts())
	lowconf, far := 0, 0
	for _, ev := range events {
		if !ev.LowConfidence {
			continue
		}
		lowconf++
		if ev.NewPhase {
			t.Fatalf("repaired interval %d founded phase %d", ev.Interval, ev.Phase)
		}
		if ev.Distance > 0.35 {
			far++
		}
	}
	if lowconf != repaired {
		t.Fatalf("lowconf labels = %d, want %d (one per repaired interval)", lowconf, repaired)
	}
	if far == 0 {
		t.Fatal("test premise broken: no repaired interval lay beyond the founding threshold")
	}
}

// FuzzLiveLabelsMatchModel feeds a random phase stream in random batches
// grouped into directory passes, refreshing every 1 to 8 intervals, and
// moves the engine once through State, JSON and Restore at a random batch
// boundary. Every live label must equal refLabels over the refreshes'
// models and the batch rows of each prefix, so a column that joins the
// matrix after a fit cannot shift a centroid onto the wrong function.
func FuzzLiveLabelsMatchModel(f *testing.F) {
	f.Add(int64(1), uint8(70), uint8(3), uint8(12), uint8(30))
	f.Add(int64(7), uint8(130), uint8(0), uint8(64), uint8(0))
	f.Add(int64(42), uint8(9), uint8(7), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, n, every, maxBatch, cut uint8) {
		snaps := randomPhaseSnaps(seed, 2+int(n)%140)
		profs, err := interval.Difference(snaps)
		if err != nil {
			t.Fatal(err)
		}
		popts := baseOpts()
		var events []online.Event
		var refs []stream.Refresh
		opts := stream.Options{
			Phase:        popts,
			RefreshEvery: 1 + int(every)%8,
			OnLabel:      func(ev online.Event) { events = append(events, ev) },
			OnRefresh: func(r stream.Refresh) {
				if !r.Final {
					refs = append(refs, r)
				}
			},
		}
		eng := stream.New(opts)
		rng := rand.New(rand.NewSource(seed ^ 0x2545f491))
		cutAt := 1 + int(cut)%len(snaps)
		for lo := 0; lo < len(snaps); {
			for b := 1 + rng.Intn(4); b > 0 && lo < len(snaps); b-- {
				k := min(len(snaps)-lo, 1+rng.Intn(1+int(maxBatch)%64))
				if lo < cutAt && lo+k > cutAt {
					k = cutAt - lo
				}
				if err := eng.EmitBatch(append([]*profile.Sample(nil), snaps[lo:lo+k]...)); err != nil {
					t.Fatal(err)
				}
				lo += k
				if lo == cutAt {
					st, err := eng.State()
					if err != nil {
						t.Fatal(err)
					}
					if eng, err = stream.Restore(opts, jsonRoundTrip(t, st)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := eng.EndPass(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Finish(); err != nil {
			t.Fatal(err)
		}
		checkLabels(t, events, profs, refs, popts)
	})
}

// rep repeats row n times.
func rep(n int, row map[string]float64) []map[string]float64 {
	out := make([]map[string]float64, n)
	for i := range out {
		out[i] = row
	}
	return out
}

// Two phases in a row: the first interval founds phase 0, the first
// interval of the second phase founds phase 1 and is the one transition,
// and every other interval joins its run's phase without an event.
func TestLiveTwoPhaseStream(t *testing.T) {
	rows := append(rep(10, map[string]float64{"init": 0.9, "aux": 0.1}), rep(15, map[string]float64{"solve": 1})...)
	events, _ := labelRun(t, stream.Options{Phase: baseOpts()}, selfSnaps(rows))
	for i, ev := range events {
		want := online.Event{Interval: i, Phase: i / 10, NewPhase: i == 0 || i == 10, Transition: i == 10}
		if i >= 10 {
			want.Phase = 1
		}
		if ev != want {
			t.Fatalf("interval %d: %+v, want %+v", i, ev, want)
		}
	}
}

// A provisional phase stays at its founding row: a slow drift joins it
// until the drift has carried an interval more than 0.35 from that row,
// and that interval founds the next phase, which the rest of the drift
// joins.
func TestLiveSlowDriftFoundsPhaseOnlyPastThreshold(t *testing.T) {
	var rows []map[string]float64
	for i := 0; i < 50; i++ {
		rows = append(rows, map[string]float64{"compute": float64(50+i) / 100, "comm": float64(50-i) / 100})
	}
	events, _ := labelRun(t, stream.Options{Phase: baseOpts()}, selfSnaps(rows))
	for i, ev := range events {
		wantPhase, wantNew := 0, i == 0
		if i >= 25 {
			wantPhase, wantNew = 1, i == 25
		}
		if ev.Phase != wantPhase || ev.NewPhase != wantNew || ev.Transition != (i == 25) {
			t.Fatalf("interval %d: %+v, want phase %d (new %v)", i, ev, wantPhase, wantNew)
		}
	}
	if d := events[24].Distance; math.Abs(d-0.24*math.Sqrt2) > 1e-9 {
		t.Fatalf("interval 24 joined at distance %v, want %v from the founding row", d, 0.24*math.Sqrt2)
	}
}

// An interval orthogonal to every phase founds one and is a transition.
func TestLiveAbruptChangeFoundsPhase(t *testing.T) {
	events, _ := labelRun(t, stream.Options{Phase: baseOpts()}, selfSnaps([]map[string]float64{{"a": 1}, {"b": 1}}))
	if want := (online.Event{Interval: 1, Phase: 1, NewPhase: true, Transition: true}); events[1] != want {
		t.Fatalf("orthogonal interval: %+v, want %+v", events[1], want)
	}
}

// A B A: the return to A rejoins phase 0 at distance 0 and is a
// transition, not a third phase.
func TestLiveReturnToEarlierPhase(t *testing.T) {
	rows := append(append(rep(5, map[string]float64{"a": 1}), rep(5, map[string]float64{"b": 1})...), map[string]float64{"a": 1})
	events, _ := labelRun(t, stream.Options{Phase: baseOpts()}, selfSnaps(rows))
	if want := (online.Event{Interval: 10, Phase: 0, Transition: true}); events[10] != want {
		t.Fatalf("return to phase 0: %+v, want %+v", events[10], want)
	}
}

// Functions the feature options exclude are no dimension of the labels:
// an interval that differs from a phase only in MPI time joins it exactly.
func TestLiveLabelsIgnoreExcludedFunctions(t *testing.T) {
	rows := []map[string]float64{{"work": 0.5, "MPI_Barrier": 0.5}, {"work": 0.5}}
	events, _ := labelRun(t, stream.Options{Phase: baseOpts()}, selfSnaps(rows))
	if want := (online.Event{Interval: 1, Phase: 0}); events[1] != want {
		t.Fatalf("interval without MPI time: %+v, want %+v", events[1], want)
	}
}

// robustLabels labels snaps under split gap repair, with no refresh.
func robustLabels(t *testing.T, snaps []*profile.Sample) []online.Event {
	t.Helper()
	events, _ := labelRun(t, stream.Options{Robust: true, Phase: baseOpts()}, snaps)
	return events
}

// A repaired interval far from the only phase joins it with LowConfidence
// and founds nothing, and it leaves the phase where it was: the genuine
// interval after it matches the founding row at distance 0.
func TestLiveRepairedIntervalJoinsWithoutMovingPhase(t *testing.T) {
	period := 10 * time.Millisecond
	events := robustLabels(t, []*profile.Sample{
		snap(0, time.Second, period, map[string][2]int64{"a": {100, 10}}),
		snap(1, 2*time.Second, period, map[string][2]int64{"a": {200, 20}}),
		// Seqs 2-3 lost: split repair spreads 9 s of b over three intervals.
		snap(4, 5*time.Second, period, map[string][2]int64{"a": {200, 20}, "b": {900, 30}}),
		snap(5, 6*time.Second, period, map[string][2]int64{"a": {300, 30}, "b": {900, 30}}),
	})
	if len(events) != 6 {
		t.Fatalf("%d labels, want 6 (three of them repaired)", len(events))
	}
	for _, ev := range events[2:5] {
		if !ev.LowConfidence || ev.NewPhase || ev.Phase != 0 || ev.Distance <= 0.35 {
			t.Fatalf("repaired interval: %+v, want a low-confidence join of phase 0 beyond 0.35", ev)
		}
	}
	if want := (online.Event{Interval: 5, Phase: 0}); events[5] != want {
		t.Fatalf("genuine interval after the repair: %+v, want %+v", events[5], want)
	}
}

// With no phase to join, a repaired interval founds one, still with
// LowConfidence.
func TestLiveRepairedIntervalFoundsOnlyWhenNoPhasesExist(t *testing.T) {
	period := 10 * time.Millisecond
	// Seqs 0-1 lost: the stream starts with two repaired intervals.
	events := robustLabels(t, []*profile.Sample{
		snap(2, 3*time.Second, period, map[string][2]int64{"a": {300, 30}}),
	})
	if len(events) != 3 {
		t.Fatalf("%d labels, want 3", len(events))
	}
	if want := (online.Event{Interval: 0, Phase: 0, NewPhase: true, LowConfidence: true}); events[0] != want {
		t.Fatalf("first repaired interval: %+v, want %+v", events[0], want)
	}
	for _, ev := range events[1:] {
		if ev.NewPhase || ev.Phase != 0 {
			t.Fatalf("later interval %+v founded or left phase 0", ev)
		}
	}
}

// Without refreshes the labels do not depend on how the dumps arrive: one
// Emit per dump and one EmitBatch per directory pass give equal events,
// low-confidence labels included.
func TestLiveLabelsSameForEmitAndEmitBatch(t *testing.T) {
	snaps := randomPhaseSnaps(3, 60)
	snaps = append(snaps[:20], snaps[23:]...) // a gap for split repair
	one := robustLabels(t, snaps)
	var batched []online.Event
	eng := stream.New(stream.Options{Robust: true, Phase: baseOpts(), OnLabel: func(ev online.Event) { batched = append(batched, ev) }})
	for lo := 0; lo < len(snaps); lo += 16 {
		if err := eng.EmitBatch(append([]*profile.Sample(nil), snaps[lo:min(lo+16, len(snaps))]...)); err != nil {
			t.Fatal(err)
		}
		if err := eng.EndPass(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batched, one) {
		t.Fatalf("batched labels differ:\n batch %+v\n emit  %+v", batched, one)
	}
	lowconf := 0
	for _, ev := range one {
		if ev.LowConfidence {
			lowconf++
		}
	}
	if lowconf == 0 {
		t.Fatal("test premise broken: no repaired interval")
	}
}

// The labeller counts its labels in the metrics registry: one per
// interval, and one per founding, transition and low-confidence label.
func TestLiveLabelMetrics(t *testing.T) {
	obs.Enable(obs.Config{Seed: 1})
	defer obs.Disable()
	period := 10 * time.Millisecond
	events := robustLabels(t, []*profile.Sample{
		snap(0, time.Second, period, map[string][2]int64{"a": {100, 10}}),
		snap(2, 3*time.Second, period, map[string][2]int64{"a": {100, 10}, "b": {200, 20}}),
		snap(3, 4*time.Second, period, map[string][2]int64{"a": {200, 20}, "b": {200, 20}}),
		snap(4, 5*time.Second, period, map[string][2]int64{"a": {200, 20}, "b": {200, 20}, "c": {100, 10}}),
	})
	var founded, transitions, lowconf int64
	for _, ev := range events {
		if ev.NewPhase {
			founded++
		}
		if ev.Transition {
			transitions++
		}
		if ev.LowConfidence {
			lowconf++
		}
	}
	if founded == 0 || transitions == 0 || lowconf == 0 {
		t.Fatalf("test premise broken: labels %+v", events)
	}
	got := [4]int64{obs.C("online.intervals").Value(), obs.C("online.phases.founded").Value(),
		obs.C("online.transitions").Value(), obs.C("online.lowconf").Value()}
	if want := [4]int64{int64(len(events)), founded, transitions, lowconf}; got != want {
		t.Fatalf("counters (intervals, founded, transitions, lowconf) = %v, want %v", got, want)
	}
}

// A function that becomes a column after a refresh reads as zero in the
// model's centroids: an interval with a little of it joins the model's
// phase at that distance, and one of it alone founds a phase.
func TestLiveColumnJoiningAfterRefreshReadsZero(t *testing.T) {
	rows := append(rep(5, map[string]float64{"a": 1}), map[string]float64{"a": 1, "b": 0.2}, map[string]float64{"b": 1})
	events, refs := labelRun(t, stream.Options{Phase: baseOpts(), RefreshEvery: 5}, selfSnaps(rows))
	if len(refs) != 1 || refs[0].Intervals != 5 {
		t.Fatalf("test premise broken: refreshes %+v, want one over the five a intervals", refs)
	}
	if ev := events[5]; ev.NewPhase || ev.Phase != 0 || math.Abs(ev.Distance-0.2) > 1e-9 {
		t.Fatalf("interval with new column b: %+v, want phase 0 at distance 0.2", ev)
	}
	if ev := events[6]; !ev.NewPhase || ev.Phase != refs[0].K {
		t.Fatalf("interval of b alone: %+v, want it to found phase %d", ev, refs[0].K)
	}
}
