package phase

import (
	"slices"
	"sort"

	"github.com/incprof/incprof/internal/interval"
)

// SelectPhaseSites runs Algorithm 1 for one phase, filling p.Sites and the
// per-site coverage percentages: the per-phase site selection Detect
// applies, over the phase's profiles stored as rows first.
func SelectPhaseSites(p *Phase, profiles []interval.Profile, m interval.Matrix, threshold float64, totalIntervals int) {
	b := interval.NewMatrixBuilder(interval.FeatureOptions{})
	rows := make([]interval.Row, len(profiles))
	for _, i := range p.Intervals {
		b.Add(&profiles[i])
		rows[i] = b.Rows()[b.NumRows()-1]
	}
	selectSites(p, rows, m, threshold, totalIntervals)
}

// selectSites runs Algorithm 1 for one phase, filling p.Sites and the
// per-site coverage percentages.
//
// Inputs mirror the paper's: the clustered intervals (p.Intervals), the
// per-interval function call counts F (each row's Calls cells), and the
// per-function phase rank set R (members.ranks). The feature matrix and
// centroid provide the distance ordering of line 3. Every function is
// handled by its id in the rows' store.
func selectSites(p *Phase, rows []interval.Row, m interval.Matrix, threshold float64, totalIntervals int) {
	if len(p.Intervals) == 0 {
		return
	}
	act := activeIDs(rows, p.Intervals)
	ranks := act.ranks(rows[p.Intervals[0]].NumFuncs())

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
	var siteIDs []int32

	// covered marks the members some selected function is active in, and
	// ncovered counts them; both grow only when a new function is selected,
	// so the walk costs one pass over the members per selected function
	// rather than one per visited interval.
	covered := make([]bool, n)
	ncovered := 0
	cover := func(id int32) {
		for pos := range p.Intervals {
			if !covered[pos] && slices.Contains(act.of(pos), id) {
				covered[pos] = true
				ncovered++
			}
		}
	}

	type cand struct {
		id    int32
		calls int64
		rank  float64
		self  int64
	}
	var cells []interval.Cell
	var cands []cand
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
		row := &rows[p.Intervals[pos]]
		// Lines 10-11: sort the interval's active functions by call
		// count ascending, then rank descending. Remaining ties break
		// on longer self time, then name, for determinism.
		cells = row.Cells(cells[:0])
		cands = cands[:0]
		for _, c := range cells {
			if c.Self > 0 {
				cands = append(cands, cand{id: c.ID, calls: c.Calls, rank: ranks[c.ID], self: int64(c.Self)})
			}
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
			if ca.self != cb.self {
				return ca.self > cb.self
			}
			return row.Name(ca.id) < row.Name(cb.id)
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
		sites = append(sites, Site{Function: row.Name(f.id), Type: ty})
		siteIDs = append(siteIDs, f.id)
		cover(f.id)
	}
	p.Sites = sites
	act.credit(p, siteIDs, totalIntervals)
}

// members holds each member interval's active function ids (positive
// sampled self time), flat: member pos's are ids[end[pos-1]:end[pos]].
type members struct {
	ids []int32
	end []int
}

// activeIDs gathers the active function ids of the listed intervals.
func activeIDs(rows []interval.Row, intervals []int) members {
	act := members{end: make([]int, len(intervals))}
	var cells []interval.Cell
	for pos, idx := range intervals {
		cells = rows[idx].Cells(cells[:0])
		for _, c := range cells {
			if c.Self > 0 {
				act.ids = append(act.ids, c.ID)
			}
		}
		act.end[pos] = len(act.ids)
	}
	return act
}

// of returns member pos's active ids, ascending.
func (a members) of(pos int) []int32 {
	from := 0
	if pos > 0 {
		from = a.end[pos-1]
	}
	return a.ids[from:a.end[pos]]
}

// ranks computes the paper's per-function, per-phase rank by function id:
// "the fraction of intervals in the phase that the function is active in
// (i.e., has a non-zero execution time)" (§V-B). nfuncs bounds the ids.
func (a members) ranks(nfuncs int) []float64 {
	ranks := make([]float64, nfuncs)
	for _, id := range a.ids {
		ranks[id]++
	}
	for id := range ranks {
		ranks[id] /= float64(len(a.end))
	}
	return ranks
}

// credit sets each site's Phase % and App %, the per-site columns of Tables
// II-VI: each member interval is credited to its earliest-selected site
// whose function, siteIDs[si] (-1 when the rows never record it), is active
// in it.
func (a members) credit(p *Phase, siteIDs []int32, totalIntervals int) {
	credit := make([]int, len(p.Sites))
	for pos := range a.end {
		for si, id := range siteIDs {
			if slices.Contains(a.of(pos), id) {
				credit[si]++
				break
			}
		}
	}
	for si := range p.Sites {
		if len(a.end) > 0 {
			p.Sites[si].PhasePct = 100 * float64(credit[si]) / float64(len(a.end))
		}
		if totalIntervals > 0 {
			p.Sites[si].AppPct = 100 * float64(credit[si]) / float64(totalIntervals)
		}
	}
}
