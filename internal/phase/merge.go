package phase

import (
	"fmt"
	"sort"
	"strings"

	"github.com/incprof/incprof/internal/interval"
)

// MergeDuplicatePhases combines phases whose instrumentation-site sets are
// identical — the post-processing step the paper proposes after observing
// duplicate phases ("our phase discovery might need some postprocessing to
// combine phases which have the same instrumentation sites", §VI-A; LAMMPS
// phases 0 and 2 "should really be identified as a single phase", §VI-D).
//
// Merged phases pool their intervals; site coverage percentages are
// recomputed over the pooled intervals; phases are renumbered by first
// occurrence. It returns the number of merges performed (phases removed).
func (d *Detection) MergeDuplicatePhases() int {
	if len(d.Phases) < 2 {
		return 0
	}
	key := func(p *Phase) string {
		parts := make([]string, 0, len(p.Sites))
		for _, s := range p.Sites {
			parts = append(parts, fmt.Sprintf("%s\x00%d", s.Function, s.Type))
		}
		sort.Strings(parts)
		return strings.Join(parts, "\x01")
	}
	byKey := make(map[string]int) // key -> index into merged
	var merged []Phase
	removed := 0
	for _, p := range d.Phases {
		k := key(&p)
		if k == "" {
			// Phases with no sites never merge with each other.
			merged = append(merged, p)
			continue
		}
		if idx, ok := byKey[k]; ok {
			dst := &merged[idx]
			dst.Intervals = append(dst.Intervals, p.Intervals...)
			removed++
			continue
		}
		byKey[k] = len(merged)
		merged = append(merged, p)
	}
	if removed == 0 {
		return 0
	}
	for i := range merged {
		sort.Ints(merged[i].Intervals)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Intervals[0] < merged[j].Intervals[0] })
	total := len(d.Profiles)
	for i := range merged {
		merged[i].ID = i
		recomputeCoverage(&merged[i], d.Profiles, total)
	}
	d.Phases = merged
	return removed
}

// recomputeCoverage refreshes per-site Phase % and App % after the phase's
// interval membership changed, using the same earliest-selected-site credit
// rule as Algorithm 1's reporting.
func recomputeCoverage(p *Phase, rows []interval.Row, totalIntervals int) {
	if len(p.Intervals) == 0 {
		return
	}
	siteIDs := make([]int32, len(p.Sites))
	for si := range p.Sites {
		id, ok := rows[0].Lookup(p.Sites[si].ActivityFunction())
		if !ok {
			id = -1
		}
		siteIDs[si] = id
	}
	activeIDs(rows, p.Intervals).credit(p, siteIDs, totalIntervals)
}
