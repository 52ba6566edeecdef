package interval

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/profile"
)

// genStream builds a clean cumulative snapshot stream: counters are
// monotone non-decreasing per function, timestamps advance one second per
// dump, the sample period is constant — exactly what a healthy collector
// produces.
func genStream(rng *rand.Rand, n int, fns []string) []*profile.Sample {
	period := 10 * time.Millisecond
	cumSamples := make(map[string]int64)
	cumSelf := make(map[string]time.Duration)
	cumCalls := make(map[string]int64)
	out := make([]*profile.Sample, n)
	for i := 0; i < n; i++ {
		s := &profile.Sample{
			Seq:          i,
			Timestamp:    time.Duration(i+1) * time.Second,
			SamplePeriod: period,
		}
		for _, fn := range fns {
			cumSamples[fn] += int64(rng.Intn(50))
			cumSelf[fn] += time.Duration(rng.Intn(500)) * time.Millisecond
			cumCalls[fn] += int64(rng.Intn(20))
			s.Funcs = append(s.Funcs, profile.FuncRecord{
				Name:     fn,
				Samples:  cumSamples[fn],
				SelfTime: cumSelf[fn],
				Calls:    cumCalls[fn],
			})
		}
		s.Normalize()
		out[i] = s
	}
	return out
}

// rawTotals is the ground truth the repair policies are judged against: the
// last snapshot's cumulative counters, i.e. the sum of every true interval
// delta whether or not the dump carrying it survived.
func rawTotals(snaps []*profile.Sample) (self map[string]time.Duration, calls map[string]int64) {
	self = make(map[string]time.Duration)
	calls = make(map[string]int64)
	last := snaps[len(snaps)-1]
	for _, f := range last.Funcs {
		self[f.Name] = time.Duration(f.Samples) * last.SamplePeriod
		calls[f.Name] = f.Calls
	}
	return self, calls
}

// sumProfiles folds the emitted profiles back into per-function totals.
func sumProfiles(profs []Profile) (self map[string]time.Duration, calls map[string]int64) {
	self = make(map[string]time.Duration)
	calls = make(map[string]int64)
	for i := range profs {
		for fn, d := range profs[i].Self {
			self[fn] += d
		}
		for fn, c := range profs[i].Calls {
			calls[fn] += c
		}
	}
	return self, calls
}

// dropSeqs removes the snapshots whose Seq is in drop, returning the
// surviving stream.
func dropSeqs(snaps []*profile.Sample, drop map[int]bool) []*profile.Sample {
	out := make([]*profile.Sample, 0, len(snaps))
	for _, s := range snaps {
		if !drop[s.Seq] {
			out = append(out, s)
		}
	}
	return out
}

// pickDrops selects a random subset of interior sequence numbers to lose.
// The last dump always survives so the raw totals stay observable.
func pickDrops(rng *rand.Rand, n, count int) map[int]bool {
	drop := make(map[int]bool)
	for len(drop) < count {
		drop[rng.Intn(n-1)] = true // never the last (Seq n-1)
	}
	return drop
}

// TestPropertyRepairedTotalsNeverExceedRaw: for every repair policy, the
// per-function totals of the emitted profiles never exceed the raw cumulative
// deltas; for GapSplit they match them exactly (split conserves).
func TestPropertyRepairedTotalsNeverExceedRaw(t *testing.T) {
	fns := []string{"compute", "halo", "reduce"}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		snaps := genStream(rng, 8+rng.Intn(20), fns)
		drop := pickDrops(rng, len(snaps), 1+rng.Intn(4))
		kept := dropSeqs(snaps, drop)
		wantSelf, wantCalls := rawTotals(snaps)
		for _, policy := range []GapPolicy{GapSplit, GapDrop, GapScale} {
			res, err := robust(kept, policy)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, policy, err)
			}
			gotSelf, gotCalls := sumProfiles(res.Profiles)
			for fn := range wantSelf {
				switch policy {
				case GapSplit:
					if gotSelf[fn] != wantSelf[fn] {
						t.Fatalf("trial %d split: %s self %v != raw %v (drop %v)",
							trial, fn, gotSelf[fn], wantSelf[fn], drop)
					}
					if gotCalls[fn] != wantCalls[fn] {
						t.Fatalf("trial %d split: %s calls %d != raw %d",
							trial, fn, gotCalls[fn], wantCalls[fn])
					}
				default:
					if gotSelf[fn] > wantSelf[fn] {
						t.Fatalf("trial %d %s: %s self %v exceeds raw %v",
							trial, policy, fn, gotSelf[fn], wantSelf[fn])
					}
					if gotCalls[fn] > wantCalls[fn] {
						t.Fatalf("trial %d %s: %s calls %d exceeds raw %d",
							trial, policy, fn, gotCalls[fn], wantCalls[fn])
					}
				}
			}
		}
	}
}

// TestPropertyGapsPartitionMissingSeqs: the GapMissing records' exclusive
// (FromSeq, ToSeq) ranges exactly partition the set of dropped sequence
// numbers — every lost dump is covered by exactly one gap.
func TestPropertyGapsPartitionMissingSeqs(t *testing.T) {
	fns := []string{"a", "b"}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		snaps := genStream(rng, 10+rng.Intn(15), fns)
		drop := pickDrops(rng, len(snaps), 1+rng.Intn(5))
		kept := dropSeqs(snaps, drop)
		res, err := robust(kept, GapSplit)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		covered := make(map[int]int) // seq -> covering gap count
		for _, g := range res.Gaps {
			if g.Kind != GapMissing {
				t.Fatalf("trial %d: unexpected gap kind %s on a drops-only stream", trial, g.Kind)
			}
			if g.Missing != g.ToSeq-g.FromSeq-1 {
				t.Fatalf("trial %d: gap %d..%d reports Missing=%d", trial, g.FromSeq, g.ToSeq, g.Missing)
			}
			for seq := g.FromSeq + 1; seq < g.ToSeq; seq++ {
				covered[seq]++
			}
		}
		for seq := range drop {
			if covered[seq] != 1 {
				t.Fatalf("trial %d: dropped seq %d covered %d times (gaps %+v)",
					trial, seq, covered[seq], res.Gaps)
			}
		}
		for seq, n := range covered {
			if !drop[seq] || n != 1 {
				t.Fatalf("trial %d: seq %d covered %dx but dropped=%v", trial, seq, n, drop[seq])
			}
		}
	}
}

// TestPropertyDedupeIdempotent: injecting duplicate and late (out-of-order)
// copies of already-seen dumps must not change the emitted profiles at all —
// the perturbation surfaces only as duplicate/late Gap records.
func TestPropertyDedupeIdempotent(t *testing.T) {
	fns := []string{"x", "y", "z"}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		snaps := genStream(rng, 6+rng.Intn(12), fns)
		clean, err := robust(snaps, GapSplit)
		if err != nil {
			t.Fatalf("trial %d clean: %v", trial, err)
		}
		// Perturb: after each position (except the first), maybe re-insert
		// the current dump (duplicate) or an arbitrary earlier one (late).
		perturbed := make([]*profile.Sample, 0, 2*len(snaps))
		injected := 0
		for i, s := range snaps {
			perturbed = append(perturbed, s)
			if i == 0 {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				perturbed = append(perturbed, s.Clone())
				injected++
			case 1:
				perturbed = append(perturbed, snaps[rng.Intn(i)].Clone())
				injected++
			}
		}
		res, err := robust(perturbed, GapSplit)
		if err != nil {
			t.Fatalf("trial %d perturbed: %v", trial, err)
		}
		if !reflect.DeepEqual(clean.Profiles, res.Profiles) {
			t.Fatalf("trial %d: profiles changed under duplicate/late injection", trial)
		}
		if len(res.Gaps) != injected {
			t.Fatalf("trial %d: %d injections but %d gap records", trial, injected, len(res.Gaps))
		}
		for _, g := range res.Gaps {
			if g.Kind != GapDuplicate && g.Kind != GapLate {
				t.Fatalf("trial %d: unexpected gap kind %s", trial, g.Kind)
			}
			if g.FirstProfile != -1 {
				t.Fatalf("trial %d: %s gap claims profile %d", trial, g.Kind, g.FirstProfile)
			}
		}
	}
}

// TestSplitFanoutCapped: a corrupt Seq jump far beyond maxSplitFanout must
// not allocate one profile per "missing" interval; the span collapses to a
// single repaired profile that still conserves the observed delta.
func TestSplitFanoutCapped(t *testing.T) {
	mk := func(seq int, samples int64) *profile.Sample {
		return &profile.Sample{
			Seq:          seq,
			Timestamp:    time.Duration(seq+1) * time.Second,
			SamplePeriod: 10 * time.Millisecond,
			Funcs:        []profile.FuncRecord{{Name: "f", Samples: samples, Calls: samples}},
		}
	}
	snaps := []*profile.Sample{mk(0, 100), mk(1<<30, 300)}
	res, err := robust(snaps, GapSplit)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 2 {
		t.Fatalf("capped split emitted %d profiles, want 2", len(res.Profiles))
	}
	if !res.Profiles[1].Repaired {
		t.Fatal("capped span's profile not marked Repaired")
	}
	gotSelf, gotCalls := sumProfiles(res.Profiles)
	if gotSelf["f"] != 300*10*time.Millisecond || gotCalls["f"] != 300 {
		t.Fatalf("capped split lost data: self=%v calls=%d", gotSelf["f"], gotCalls["f"])
	}
	if len(res.Gaps) != 1 || res.Gaps[0].Kind != GapMissing {
		t.Fatalf("gaps = %+v", res.Gaps)
	}
}
