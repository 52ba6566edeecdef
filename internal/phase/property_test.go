package phase

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/xmath"
)

// randomWorkload builds a synthetic interval-profile sequence with a random
// number of phases, functions per phase, and per-interval noise —
// structured enough to be detectable, random enough to explore edge cases.
func randomWorkload(seed uint64) []interval.Profile {
	rng := xmath.NewRNG(seed)
	numPhases := 1 + rng.Intn(4)
	var profs []interval.Profile
	idx := 0
	for ph := 0; ph < numPhases; ph++ {
		span := 4 + rng.Intn(12)
		mainFn := string(rune('a'+ph)) + "_main"
		helperFn := string(rune('a'+ph)) + "_helper"
		for i := 0; i < span; i++ {
			p := interval.Profile{
				Index:     idx,
				Start:     time.Duration(idx) * time.Second,
				End:       time.Duration(idx+1) * time.Second,
				Self:      map[string]time.Duration{},
				ExactSelf: map[string]time.Duration{},
				Calls:     map[string]int64{},
			}
			mainShare := 0.6 + 0.3*rng.Float64()
			p.Self[mainFn] = time.Duration(mainShare * float64(time.Second))
			if rng.Float64() < 0.7 {
				p.Self[helperFn] = time.Duration((1 - mainShare) * float64(time.Second))
				p.Calls[helperFn] = int64(10 + rng.Intn(100))
			}
			if rng.Float64() < 0.5 {
				p.Calls[mainFn] = int64(1 + rng.Intn(3))
			}
			profs = append(profs, p)
			idx++
		}
	}
	return profs
}

// Property: every phase reaches the coverage threshold (or has exhausted
// its intervals trying), and per-site percentages are sane.
func TestPropertyCoverageInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		profs := randomWorkload(seed)
		det, err := Detect(profs, Options{Cluster: cluster.Options{Seed: seed}})
		if err != nil {
			return false
		}
		for _, p := range det.Phases {
			cov := coverage(&p, profs)
			// Algorithm 1 stops only at >= threshold or when every
			// interval has been processed. Every processed uncovered
			// interval with activity contributes a site, so coverage
			// below threshold is only possible if some intervals have
			// no active functions at all — not the case here.
			if cov < det.Options.CoverageThreshold-1e-9 {
				return false
			}
			var phaseSum float64
			for _, s := range p.Sites {
				if s.PhasePct < 0 || s.PhasePct > 100+1e-9 {
					return false
				}
				if s.AppPct < 0 || s.AppPct > 100+1e-9 {
					return false
				}
				phaseSum += s.PhasePct
			}
			if phaseSum > 100+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: phases partition the interval set — every interval belongs to
// exactly one phase (k-means path; DBSCAN may have noise).
func TestPropertyPhasesPartitionIntervals(t *testing.T) {
	f := func(seed uint64) bool {
		profs := randomWorkload(seed)
		det, err := Detect(profs, Options{Cluster: cluster.Options{Seed: seed}})
		if err != nil {
			return false
		}
		seen := make(map[int]int)
		for _, p := range det.Phases {
			for _, idx := range p.Intervals {
				seen[idx]++
			}
		}
		if len(seen) != len(profs) {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: site dedup — no phase lists the same function twice (so no
// (function, type) pair twice), and site functions are active somewhere in
// their phase.
func TestPropertySiteSanity(t *testing.T) {
	f := func(seed uint64) bool {
		profs := randomWorkload(seed)
		det, err := Detect(profs, Options{Cluster: cluster.Options{Seed: seed}})
		if err != nil {
			return false
		}
		for _, p := range det.Phases {
			seen := make(map[string]bool)
			for _, s := range p.Sites {
				if seen[s.Function] {
					return false
				}
				seen[s.Function] = true
				active := false
				for _, idx := range p.Intervals {
					if profs[idx].Self[s.Function] > 0 {
						active = true
						break
					}
				}
				if !active {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging preserves the interval partition and never increases
// the phase count.
func TestPropertyMergePreservesPartition(t *testing.T) {
	f := func(seed uint64) bool {
		profs := randomWorkload(seed)
		det, err := Detect(profs, Options{Cluster: cluster.Options{Seed: seed}})
		if err != nil {
			return false
		}
		before := len(det.Phases)
		removed := det.MergeDuplicatePhases()
		if len(det.Phases) != before-removed {
			return false
		}
		seen := make(map[int]bool)
		for _, p := range det.Phases {
			for _, idx := range p.Intervals {
				if seen[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		return len(seen) == len(profs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
