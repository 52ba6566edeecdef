package stream_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

// snap builds a cumulative snapshot; funcs maps name -> {samples, calls}.
// Funcs are name-sorted: Snapshot.Func looks records up by binary search,
// so the invariant every real producer maintains must hold here too.
func snap(seq int, ts time.Duration, period time.Duration, funcs map[string][2]int64) *profile.Sample {
	s := &profile.Sample{Seq: seq, Timestamp: ts, SamplePeriod: period}
	for name, v := range funcs {
		s.Funcs = append(s.Funcs, profile.FuncRecord{
			Name:     name,
			Samples:  v[0],
			SelfTime: time.Duration(v[0]) * period,
			Calls:    v[1],
		})
	}
	sort.Slice(s.Funcs, func(i, j int) bool { return s.Funcs[i].Name < s.Funcs[j].Name })
	return s
}

// runDifferencer feeds snaps through a Differencer and returns the profiles
// it emitted.
func runDifferencer(t *testing.T, opts stream.DifferencerOptions, snaps []*profile.Sample) ([]interval.Profile, []interval.Gap, error) {
	t.Helper()
	b := interval.NewMatrixBuilder(interval.FeatureOptions{})
	d := stream.NewDifferencer(opts, func(d *interval.Delta) error {
		b.AddCells(d.Start, d.End, d.Repaired, d.Cells, d.Name)
		return nil
	})
	for _, s := range snaps {
		if err := d.Emit(s); err != nil {
			return interval.Profiles(b.Rows()), d.Gaps(), err
		}
	}
	err := d.Flush()
	return interval.Profiles(b.Rows()), d.Gaps(), err
}

func cleanSnaps() []*profile.Sample {
	period := 10 * time.Millisecond
	return []*profile.Sample{
		snap(0, time.Second, period, map[string][2]int64{"a": {50, 5}}),
		snap(1, 2*time.Second, period, map[string][2]int64{"a": {120, 12}, "b": {10, 1}}),
		snap(2, 3*time.Second, period, map[string][2]int64{"a": {130, 13}, "b": {40, 2}}),
		snap(3, 4*time.Second, period, map[string][2]int64{"a": {200, 20}, "b": {45, 3}}),
	}
}

func TestStrictDifferencerMatchesBatch(t *testing.T) {
	snaps := cleanSnaps()
	want, err := interval.Difference(snaps)
	if err != nil {
		t.Fatal(err)
	}
	got, gaps, err := runDifferencer(t, stream.DifferencerOptions{}, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 0 {
		t.Fatalf("strict mode produced gaps: %+v", gaps)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming profiles differ from batch:\n got %+v\nwant %+v", got, want)
	}
}

func TestStrictDifferencerErrorMatchesBatch(t *testing.T) {
	period := 10 * time.Millisecond
	snaps := []*profile.Sample{
		snap(0, time.Second, period, map[string][2]int64{"a": {50, 5}}),
		snap(1, 2*time.Second, period, map[string][2]int64{"a": {40, 6}}), // counter regression
	}
	_, wantErr := interval.Difference(snaps)
	if wantErr == nil {
		t.Fatal("batch accepted a counter regression")
	}
	_, _, gotErr := runDifferencer(t, stream.DifferencerOptions{}, snaps)
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("streaming error = %v, want %v", gotErr, wantErr)
	}
}

func TestStrictDifferencerRejectsNil(t *testing.T) {
	_, _, err := runDifferencer(t, stream.DifferencerOptions{}, []*profile.Sample{nil})
	if err == nil {
		t.Fatal("nil snapshot accepted in strict mode")
	}
}

// faultySnaps builds a deterministic pseudo-random snapshot stream with
// every discontinuity class the robust path repairs: nils, duplicates, late
// arrivals, missing seqs, counter/clock restarts, and period changes.
func faultySnaps(seed int64, n int) []*profile.Sample {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"alpha", "beta", "gamma", "delta"}
	period := 10 * time.Millisecond
	cum := map[string][2]int64{}
	var out []*profile.Sample
	seq := 0
	ts := time.Duration(0)
	for len(out) < n {
		switch r := rng.Float64(); {
		case r < 0.06:
			out = append(out, nil)
			continue
		case r < 0.12 && len(out) > 0 && out[len(out)-1] != nil:
			// Duplicate of the previous dump.
			dup := *out[len(out)-1]
			out = append(out, &dup)
			continue
		case r < 0.18 && seq > 2:
			// Late arrival: an old seq resurfaces.
			late := snap(seq-2, ts, period, cloneCounters(cum))
			out = append(out, late)
			continue
		case r < 0.24 && seq > 0:
			// Collector restart: counters and clock reset.
			cum = map[string][2]int64{}
			ts = time.Duration(rng.Intn(500)) * time.Millisecond
		case r < 0.30 && seq > 0:
			// Missing span: skip 1-3 seqs.
			seq += 1 + rng.Intn(3)
		case r < 0.34 && seq > 0:
			// Sample period change mid-stream.
			period += time.Millisecond
		}
		// Advance counters monotonically.
		for _, fn := range names {
			if rng.Float64() < 0.7 {
				c := cum[fn]
				c[0] += int64(rng.Intn(40))
				c[1] += int64(rng.Intn(5))
				cum[fn] = c
			}
		}
		ts += time.Duration(500+rng.Intn(1000)) * time.Millisecond
		out = append(out, snap(seq, ts, period, cloneCounters(cum)))
		seq++
	}
	return out
}

func cloneCounters(m map[string][2]int64) map[string][2]int64 {
	out := make(map[string][2]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// robustKernel pushes snaps straight through an interval.RobustStream and
// returns what it emits and its terminal error.
func robustKernel(snaps []*profile.Sample, policy interval.GapPolicy) ([]interval.Profile, []interval.Gap, error) {
	rs := interval.NewRobustStream(policy)
	b := interval.NewMatrixBuilder(interval.FeatureOptions{})
	var gaps []interval.Gap
	for _, s := range snaps {
		rs.Push(s, func(g interval.Gap) { gaps = append(gaps, g) }, func(d *interval.Delta) error {
			b.AddCells(d.Start, d.End, d.Repaired, d.Cells, d.Name)
			return nil
		})
	}
	return interval.Profiles(b.Rows()), gaps, rs.Err()
}

// A robust differencer without a reorder window hands on exactly the
// profiles and gaps its RobustStream kernel emits, for every policy and any
// fault pattern.
func TestRobustDifferencerMatchesKernelOnFaultyStreams(t *testing.T) {
	for _, policy := range []interval.GapPolicy{interval.GapSplit, interval.GapDrop, interval.GapScale} {
		for seed := int64(1); seed <= 25; seed++ {
			snaps := faultySnaps(seed, 40)
			wantProfiles, wantGaps, err := robustKernel(snaps, policy)
			if err != nil {
				t.Fatalf("policy %v seed %d: kernel: %v", policy, seed, err)
			}
			got, gaps, err := runDifferencer(t, stream.DifferencerOptions{Robust: true, Policy: policy}, snaps)
			if err != nil {
				t.Fatalf("policy %v seed %d: stream: %v", policy, seed, err)
			}
			if !reflect.DeepEqual(got, wantProfiles) {
				t.Fatalf("policy %v seed %d: profiles diverge\n got %+v\nwant %+v", policy, seed, got, wantProfiles)
			}
			if !reflect.DeepEqual(gaps, wantGaps) {
				t.Fatalf("policy %v seed %d: gaps diverge\n got %+v\nwant %+v", policy, seed, gaps, wantGaps)
			}
		}
	}
}

func TestRobustDifferencerAllUnusableErrorsLikeKernel(t *testing.T) {
	snaps := []*profile.Sample{nil, nil}
	_, _, wantErr := robustKernel(snaps, interval.GapSplit)
	if wantErr == nil {
		t.Fatal("the kernel accepted an all-nil stream")
	}
	_, _, gotErr := runDifferencer(t, stream.DifferencerOptions{Robust: true}, snaps)
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("streaming error = %v, want %v", gotErr, wantErr)
	}
}

// The reorder window undoes transport-level shuffling: snapshots delivered
// out of order within the window difference exactly like the in-order
// stream, with no Late/Missing gaps fabricated.
func TestReorderWindowRepairsShuffledDelivery(t *testing.T) {
	period := 10 * time.Millisecond
	var ordered []*profile.Sample
	cum := int64(0)
	for i := 0; i < 20; i++ {
		cum += int64(10 + i)
		ordered = append(ordered, snap(i, time.Duration(i+1)*time.Second, period, map[string][2]int64{"a": {cum, cum / 10}}))
	}
	want, _, err := robustKernel(ordered, interval.GapSplit)
	if err != nil {
		t.Fatal(err)
	}

	// Shuffle within a bounded horizon: swap adjacent pairs, displacing
	// every snapshot by at most 1.
	shuffled := append([]*profile.Sample(nil), ordered...)
	for i := 0; i+1 < len(shuffled); i += 2 {
		shuffled[i], shuffled[i+1] = shuffled[i+1], shuffled[i]
	}

	// Without the window, the robust path sees late arrivals and drops them.
	_, gaps, err := runDifferencer(t, stream.DifferencerOptions{Robust: true}, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) == 0 {
		t.Fatal("shuffled stream without reorder window produced no gaps (test premise broken)")
	}

	// With it, the stream is indistinguishable from the ordered one.
	got, gaps, err := runDifferencer(t, stream.DifferencerOptions{Robust: true, Reorder: 2}, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 0 {
		t.Fatalf("reorder window left gaps: %+v", gaps)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reordered profiles diverge from the in-order stream")
	}
}

func TestReorderWindowWorksInStrictMode(t *testing.T) {
	snaps := cleanSnaps()
	want, err := interval.Difference(snaps)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := []*profile.Sample{snaps[1], snaps[0], snaps[3], snaps[2]}
	got, _, err := runDifferencer(t, stream.DifferencerOptions{Reorder: 3}, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("strict reordered profiles diverge from batch")
	}
}
