package phase

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/xmath"
)

// referenceRanks is the map-based per-phase rank over interval profiles:
// the fraction of the members each function is active in.
func referenceRanks(profiles []interval.Profile, members []int) map[string]float64 {
	if len(members) == 0 {
		return map[string]float64{}
	}
	counts := make(map[string]int)
	for _, idx := range members {
		for fn, d := range profiles[idx].Self {
			if d > 0 {
				counts[fn]++
			}
		}
	}
	out := make(map[string]float64, len(counts))
	for fn, n := range counts {
		out[fn] = float64(n) / float64(len(members))
	}
	return out
}

// referenceSelectSites is Algorithm 1 over string-keyed interval profiles,
// the form selectSites took before the profiles were stored by function id.
// It fills p.Sites and the per-site coverage percentages.
func referenceSelectSites(p *Phase, profiles []interval.Profile, m interval.Matrix, threshold float64, totalIntervals int) {
	if len(p.Intervals) == 0 {
		return
	}
	ranks := referenceRanks(profiles, p.Intervals)
	n := len(p.Intervals)
	ordered := make([]int, n)
	dist := make([]float64, n)
	for pos, idx := range p.Intervals {
		ordered[pos] = pos
		dist[pos] = m.RowEuclidean(idx, p.Centroid)
	}
	sort.SliceStable(ordered, func(a, b int) bool { return dist[ordered[a]] < dist[ordered[b]] })

	var sites []Site
	covered := make([]bool, n)
	ncovered := 0
	cover := func(fn string) {
		for pos, idx := range p.Intervals {
			if !covered[pos] && profiles[idx].Self[fn] > 0 {
				covered[pos] = true
				ncovered++
			}
		}
	}
	for _, pos := range ordered {
		if float64(ncovered)/float64(n) >= threshold {
			break
		}
		if covered[pos] {
			continue
		}
		prof := &profiles[p.Intervals[pos]]
		type cand struct {
			fn    string
			calls int64
			rank  float64
		}
		var cands []cand
		for fn, d := range prof.Self {
			if d <= 0 {
				continue
			}
			cands = append(cands, cand{fn: fn, calls: prof.Calls[fn], rank: ranks[fn]})
		}
		if len(cands) == 0 {
			continue
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
		f := cands[0]
		ty := Loop
		if f.calls > 0 {
			ty = Body
		}
		sites = append(sites, Site{Function: f.fn, Type: ty})
		cover(f.fn)
	}
	p.Sites = sites
	referenceCredit(p, profiles, totalIntervals)
}

// referenceCredit credits each member interval to its earliest-selected
// site whose activity function is active in it and sets the Phase % and
// App % columns, over string-keyed profiles.
func referenceCredit(p *Phase, profiles []interval.Profile, totalIntervals int) {
	credit := make([]int, len(p.Sites))
	for _, idx := range p.Intervals {
		for si := range p.Sites {
			if profiles[idx].Self[p.Sites[si].ActivityFunction()] > 0 {
				credit[si]++
				break
			}
		}
	}
	for si := range p.Sites {
		if len(p.Intervals) > 0 {
			p.Sites[si].PhasePct = 100 * float64(credit[si]) / float64(len(p.Intervals))
		}
		if totalIntervals > 0 {
			p.Sites[si].AppPct = 100 * float64(credit[si]) / float64(totalIntervals)
		}
	}
}

// coverage is the fraction of the phase's intervals some selected site's
// activity function is active in.
func coverage(p *Phase, profiles []interval.Profile) float64 {
	if len(p.Intervals) == 0 {
		return 0
	}
	n := 0
	for _, idx := range p.Intervals {
		for _, s := range p.Sites {
			if profiles[idx].Self[s.ActivityFunction()] > 0 {
				n++
				break
			}
		}
	}
	return float64(n) / float64(len(p.Intervals))
}

// referenceProfiles builds n interval profiles over 12 functions, the
// "MPI_" ones excluded from the feature space by referenceExclude: some
// intervals idle, some repaired, with zero, negative and tied values so
// every tie-break of Algorithm 1 is reached.
func referenceProfiles(rng *xmath.RNG, n int) []interval.Profile {
	profs := make([]interval.Profile, n)
	for i := range profs {
		p := interval.Profile{
			Index:     i,
			Start:     time.Duration(i) * time.Second,
			End:       time.Duration(i+1) * time.Second,
			Self:      map[string]time.Duration{},
			ExactSelf: map[string]time.Duration{},
			Calls:     map[string]int64{},
			Repaired:  rng.Intn(6) == 0,
		}
		if rng.Intn(8) != 0 { // else idle
			for a := 1 + rng.Intn(5); a > 0; a-- {
				fn := fmt.Sprintf("f%02d", rng.Intn(9))
				if rng.Intn(4) == 0 {
					fn = fmt.Sprintf("MPI_%d", rng.Intn(3))
				}
				p.Self[fn] = time.Duration(rng.Intn(4)-1) * 100 * time.Millisecond
				p.ExactSelf[fn] = time.Duration(rng.Intn(1000)) * time.Millisecond
				if rng.Intn(3) != 0 {
					p.Calls[fn] = int64(rng.Intn(4) - 1)
				}
			}
		}
		profs[i] = p
	}
	return profs
}

func referenceExclude(fn string) bool { return strings.HasPrefix(fn, "MPI_") }

// FuzzSitesMatchReference holds Algorithm 1 over the store, by function id,
// to the string-keyed reference site for site, coverage percentages
// included, over random phases of random profiles under each feature kind;
// then the merge path's coverage recount, with a site promoted, to the
// reference credit.
func FuzzSitesMatchReference(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(40), uint8(seed), uint8(seed))
	}
	thresholds := []float64{0.5, 0.8, 0.95, 1}
	f.Fuzz(func(t *testing.T, seed uint64, size, kind, thr uint8) {
		rng := xmath.NewRNG(seed)
		profs := referenceProfiles(rng, 1+int(size)%120)
		opts := interval.FeatureOptions{Kind: interval.FeatureKind(kind % 3), Exclude: referenceExclude}
		b := interval.NewMatrixBuilder(opts)
		for i := range profs {
			b.Add(&profs[i])
		}
		rows, m := b.Rows(), b.CSRMatrix()
		k := 1 + rng.Intn(4)
		assign := make([]int, len(profs))
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		centroids := make([][]float64, k)
		for c := range centroids {
			centroids[c] = make([]float64, m.Dims())
			for j := range centroids[c] {
				centroids[c][j] = float64(rng.Intn(3)) / 10
			}
		}
		threshold := thresholds[int(thr)%len(thresholds)]
		for _, p := range buildPhases(assign, centroids, k) {
			got, want := p, p
			selectSites(&got, rows, m, threshold, len(rows))
			referenceSelectSites(&want, profs, m, threshold, len(profs))
			if !reflect.DeepEqual(got.Sites, want.Sites) {
				t.Fatalf("phase %d: sites\n%+v\nwant\n%+v", p.ID, got.Sites, want.Sites)
			}
			if len(got.Sites) == 0 {
				continue
			}
			got.Sites = append([]Site(nil), got.Sites...)
			got.Sites[0].PromotedFrom, got.Sites[0].Function = got.Sites[0].Function, "caller"
			want.Sites = append([]Site(nil), got.Sites...)
			got.Intervals = got.Intervals[:1+rng.Intn(len(got.Intervals))]
			want.Intervals = got.Intervals
			recomputeCoverage(&got, rows, len(rows))
			referenceCredit(&want, profs, len(profs))
			if !reflect.DeepEqual(got.Sites, want.Sites) {
				t.Fatalf("phase %d: recounted coverage\n%+v\nwant\n%+v", p.ID, got.Sites, want.Sites)
			}
		}
	})
}

// The id-based rank of a function is the fraction of the phase's members it
// is active in; functions outside the phase rank zero.
func TestPhaseRanks(t *testing.T) {
	rows := rowsOf([]interval.Profile{
		{Self: map[string]time.Duration{"a": time.Second, "b": time.Second}},
		{Self: map[string]time.Duration{"a": time.Second}},
		{Self: map[string]time.Duration{"a": time.Second, "c": time.Second, "idle": -time.Second}},
		{Self: map[string]time.Duration{"z": time.Second}}, // not in phase
	})
	ranks := activeIDs(rows, []int{0, 1, 2}).ranks(rows[0].NumFuncs())
	rank := func(fn string) float64 {
		id, ok := rows[0].Lookup(fn)
		if !ok {
			t.Fatalf("%s not stored", fn)
		}
		return ranks[id]
	}
	if rank("a") != 1.0 {
		t.Fatalf("rank(a) = %v, want 1", rank("a"))
	}
	if rank("b") != 1.0/3.0 || rank("c") != 1.0/3.0 {
		t.Fatalf("rank(b,c) = %v,%v, want 1/3", rank("b"), rank("c"))
	}
	if rank("z") != 0 || rank("idle") != 0 {
		t.Fatalf("rank(z, idle) = %v, %v: z is outside the phase and idle never active", rank("z"), rank("idle"))
	}
}

// rowsOf stores profiles as rows of one interval store, in order.
func rowsOf(profiles []interval.Profile) []interval.Row {
	b := interval.NewMatrixBuilder(interval.FeatureOptions{})
	for i := range profiles {
		b.Add(&profiles[i])
	}
	return b.Rows()
}
