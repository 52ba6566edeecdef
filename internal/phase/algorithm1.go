package phase

import (
	"sort"

	"github.com/incprof/incprof/internal/interval"
)

// SelectPhaseSites runs Algorithm 1 for one phase, filling p.Sites and the
// per-site coverage percentages — the exported form of the per-phase site
// selection Detect applies, used by the streaming engine so its incremental
// recomputation (only for phases whose membership or centroid changed) goes
// through the identical code path.
func SelectPhaseSites(p *Phase, profiles []interval.Profile, m interval.Matrix, threshold float64, totalIntervals int) {
	selectSites(p, profiles, m, threshold, totalIntervals)
}

// selectSites runs Algorithm 1 for one phase, filling p.Sites and the
// per-site coverage percentages.
//
// Inputs mirror the paper's: the clustered intervals (p.Intervals), the
// per-interval function call counts F (profiles[i].Calls), and the
// per-function phase rank set R (interval.Ranks). The feature matrix and
// centroid provide the distance ordering of line 3.
func selectSites(p *Phase, profiles []interval.Profile, m interval.Matrix, threshold float64, totalIntervals int) {
	if len(p.Intervals) == 0 {
		return
	}
	ranks := interval.Ranks(profiles, p.Intervals)

	// Line 3: sort intervals by distance to the cluster centroid, most
	// representative first. Ties resolve to earlier intervals. ordered
	// holds positions in p.Intervals, so per-member state is a slice.
	n := len(p.Intervals)
	ordered := make([]int, n)
	dist := make([]float64, n)
	for pos, idx := range p.Intervals {
		ordered[pos] = pos
		dist[pos] = m.RowEuclidean(idx, p.Centroid)
	}
	sort.SliceStable(ordered, func(a, b int) bool { return dist[ordered[a]] < dist[ordered[b]] })

	var sites []Site

	// covered marks the members some selected function is active in, and
	// ncovered counts them; both grow only when a new function is selected,
	// so the walk costs one pass over the members per selected function
	// rather than one per visited interval.
	covered := make([]bool, n)
	ncovered := 0
	cover := func(fn string) {
		for pos, idx := range p.Intervals {
			if !covered[pos] && profiles[idx].Active(fn) {
				covered[pos] = true
				ncovered++
			}
		}
	}

	for _, pos := range ordered {
		// Coverage threshold (§VI): once selected sites cover the
		// required fraction of the phase's intervals, stop selecting.
		if float64(ncovered)/float64(n) >= threshold {
			break
		}
		// Lines 7-9: skip intervals already covered by a selected
		// site's function.
		if covered[pos] {
			continue
		}
		prof := &profiles[p.Intervals[pos]]
		// Lines 10-11: sort the interval's active functions by call
		// count ascending, then rank descending. Remaining ties break
		// on longer self time, then name, for determinism.
		type cand struct {
			fn    string
			calls int64
			rank  float64
		}
		var cands []cand
		for fn := range prof.Self {
			if !prof.Active(fn) {
				continue
			}
			cands = append(cands, cand{fn: fn, calls: prof.Calls[fn], rank: ranks[fn]})
		}
		if len(cands) == 0 {
			continue // empty interval (no sampled activity)
		}
		sort.Slice(cands, func(a, b int) bool {
			ca, cb := cands[a], cands[b]
			if ca.calls != cb.calls {
				return ca.calls < cb.calls
			}
			if ca.rank != cb.rank {
				return ca.rank > cb.rank
			}
			if prof.Self[ca.fn] != prof.Self[cb.fn] {
				return prof.Self[ca.fn] > prof.Self[cb.fn]
			}
			return ca.fn < cb.fn
		})
		// Line 12: the topmost function covers this interval.
		f := cands[0]
		// Lines 13-17: body if called within the interval, loop if it
		// only continued to run.
		ty := Loop
		if f.calls > 0 {
			ty = Body
		}
		// Lines 18-20: add the site if new. It always is: were its
		// function selected already, this interval would be covered.
		sites = append(sites, Site{Function: f.fn, Type: ty})
		cover(f.fn)
	}

	// Credit each phase interval to its earliest-selected active site to
	// produce the per-site Phase % and App % columns of Tables II-VI.
	credit := make([]int, len(sites))
	for _, idx := range p.Intervals {
		for si := range sites {
			if profiles[idx].Active(sites[si].Function) {
				credit[si]++
				break
			}
		}
	}
	for si := range sites {
		sites[si].PhasePct = 100 * float64(credit[si]) / float64(len(p.Intervals))
		if totalIntervals > 0 {
			sites[si].AppPct = 100 * float64(credit[si]) / float64(totalIntervals)
		}
	}
	p.Sites = sites
}

// Coverage returns the fraction of the phase's intervals covered by its
// selected sites (an interval is covered when any selected site's function
// is active in it).
func (p *Phase) Coverage(profiles []interval.Profile) float64 {
	if len(p.Intervals) == 0 {
		return 0
	}
	n := 0
	for _, idx := range p.Intervals {
		for _, s := range p.Sites {
			if profiles[idx].Active(s.ActivityFunction()) {
				n++
				break
			}
		}
	}
	return float64(n) / float64(len(p.Intervals))
}
