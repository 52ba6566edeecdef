package phase

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/xmath"
)

// idlePhase is one phase of n intervals over 30 functions, every tenth
// interval idle (no sampled activity), so Algorithm 1's 95% coverage
// threshold is out of reach and the walk visits every interval. The
// returned phase has every interval as a member and the matrix's column
// means as its centroid.
func idlePhase(n int, seed uint64) (Phase, []interval.Profile, interval.Matrix) {
	rng := xmath.NewRNG(seed)
	profs := make([]interval.Profile, n)
	for i := range profs {
		p := interval.Profile{Index: i, Self: map[string]time.Duration{}, Calls: map[string]int64{}}
		if i%10 != 9 {
			for a := 1 + rng.Intn(3); a > 0; a-- {
				fn := fmt.Sprintf("f%02d", rng.Intn(30))
				p.Self[fn] += time.Duration(1+rng.Intn(1000)) * time.Millisecond
				if rng.Intn(2) == 0 {
					p.Calls[fn] += int64(rng.Intn(5))
				}
			}
		}
		profs[i] = p
	}
	m := interval.FeaturesCSR(profs, interval.FeatureOptions{})
	centroid := make([]float64, m.Dims())
	members := make([]int, n)
	for i := range members {
		members[i] = i
		vals, cols := m.Sparse.Row(i)
		for t, c := range cols {
			centroid[c] += vals[t] / float64(n)
		}
	}
	return Phase{Intervals: members, Centroid: centroid}, profs, m
}

// referenceSites is a direct transcription of Algorithm 1 that recounts
// coverage over every member before each interval it visits.
func referenceSites(p *Phase, profiles []interval.Profile, m interval.Matrix, threshold float64) []Site {
	ranks := referenceRanks(profiles, p.Intervals)
	ordered := append([]int(nil), p.Intervals...)
	dist := make(map[int]float64, len(ordered))
	for _, idx := range ordered {
		dist[idx] = m.RowEuclidean(idx, p.Centroid)
	}
	sort.SliceStable(ordered, func(a, b int) bool { return dist[ordered[a]] < dist[ordered[b]] })
	selected := map[string]bool{}
	activeSelected := func(idx int) bool {
		for fn := range selected {
			if profiles[idx].Self[fn] > 0 {
				return true
			}
		}
		return false
	}
	var sites []Site
	for _, idx := range ordered {
		covered := 0
		for _, j := range p.Intervals {
			if activeSelected(j) {
				covered++
			}
		}
		if float64(covered)/float64(len(p.Intervals)) >= threshold {
			break
		}
		if activeSelected(idx) {
			continue
		}
		prof := &profiles[idx]
		var best string
		for fn, d := range prof.Self {
			if d <= 0 {
				continue
			}
			if best == "" {
				best = fn
				continue
			}
			cb, cf := prof.Calls[best], prof.Calls[fn]
			switch {
			case cf != cb:
				if cf < cb {
					best = fn
				}
			case ranks[fn] != ranks[best]:
				if ranks[fn] > ranks[best] {
					best = fn
				}
			case prof.Self[fn] != prof.Self[best]:
				if prof.Self[fn] > prof.Self[best] {
					best = fn
				}
			case fn < best:
				best = fn
			}
		}
		if best == "" {
			continue
		}
		ty := Loop
		if prof.Calls[best] > 0 {
			ty = Body
		}
		selected[best] = true
		sites = append(sites, Site{Function: best, Type: ty})
	}
	return sites
}

// A phase whose idle intervals keep coverage below the threshold selects
// the sites the direct transcription does, and walks 8,000 intervals in
// well under a second (a coverage recount per visited interval, the
// transcription's way, is quadratic: tens of seconds at this size).
func TestSelectSitesIdleIntervalsLinear(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		p, profs, m := idlePhase(600, seed)
		want := referenceSites(&p, profs, m, 0.95)
		selectSites(&p, rowsOf(profs), m, 0.95, len(profs))
		got := make([]Site, len(p.Sites))
		for i, s := range p.Sites {
			got[i] = Site{Function: s.Function, Type: s.Type}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: sites %v, want %v", seed, got, want)
		}
		if c := coverage(&p, profs); c >= 0.95 {
			t.Fatalf("seed %d: coverage %.3f reaches the threshold; the phase must keep it out of reach", seed, c)
		}
	}

	p, profs, m := idlePhase(8000, 1)
	start := time.Now()
	selectSites(&p, rowsOf(profs), m, 0.95, len(profs))
	d := time.Since(start)
	t.Logf("8,000 intervals, 10%% idle: %v, %d sites", d, len(p.Sites))
	if d > time.Second {
		t.Fatalf("Algorithm 1 over 8,000 intervals with 10%% idle took %v, want under 1s", d)
	}
	if len(p.Sites) == 0 {
		t.Fatal("no sites selected")
	}
}
