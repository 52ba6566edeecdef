// Package fastphase implements the "alternative analysis scheme for
// applications with fast phases" the paper's Gadget2 study calls for
// (§VI-E): when an application's phases are shorter than the collection
// interval, interval self-time clustering blends them — but the
// per-interval *call counts* still carry the loop structure.
//
// Two analyses are provided:
//
//   - Loop grouping: functions whose per-interval call-count series are
//     strongly correlated and of similar rate are called from the same
//     fast loop. On Gadget2 this recovers exactly the four main timestep
//     functions the paper's manual instrumentation picked and the interval
//     analysis missed.
//   - Periodicity detection: the autocorrelation of a function's activity
//     series exposes slower periodic behavior (e.g. a particle-mesh burst
//     every k-th timestep) even when no interval cluster isolates it.
package fastphase

import (
	"math"
	"sort"

	"github.com/incprof/incprof/internal/interval"
)

// The analysis thresholds.
const (
	// minActiveFrac is the fraction of intervals a function must be called
	// in to participate in loop grouping.
	minActiveFrac = 0.5
	// corrThreshold is the minimum Pearson correlation between call-count
	// series for two functions to share a loop.
	corrThreshold = 0.85
	// rateTolerance bounds the allowed ratio between two functions' mean
	// call rates within one group (a loop may call one helper twice per
	// iteration).
	rateTolerance = 2.0
	// minStrength is the minimum autocorrelation peak height to report a
	// periodicity. The autocorrelation search spans a third of the series.
	minStrength = 0.3
)

// Options tunes the analysis.
type Options struct {
	// Exclude drops functions from the analysis (e.g. MPI wrappers).
	Exclude func(name string) bool
}

// Group is one set of functions called from the same fast loop.
type Group struct {
	// Functions are the members, sorted by descending call rate then
	// name.
	Functions []string
	// RatePerInterval is the mean calls per interval of the group's
	// slowest member — the loop's estimated iteration rate.
	RatePerInterval float64
}

// Periodicity is one detected periodic activity pattern.
type Periodicity struct {
	// Function is the periodic function.
	Function string
	// Period is the cycle length in intervals.
	Period int
	// Strength is the autocorrelation at that lag (0..1-ish; higher is
	// more periodic).
	Strength float64
}

// Result is the fast-phase analysis output.
type Result struct {
	// Groups holds the detected fast loops, largest first.
	Groups []Group
	// Periodicities holds per-function periodic patterns, strongest
	// first.
	Periodicities []Periodicity
}

// Analyze runs both analyses over interval profiles, with the thresholds
// above: loops group functions active in at least half the intervals whose
// call series correlate at 0.85 or more within a 2× rate band, and a
// periodicity is an autocorrelation peak of at least 0.3 within a third of
// the series.
func Analyze(profiles []interval.Profile, opts Options) *Result {
	n := len(profiles)
	res := &Result{}
	if n < 4 {
		return res
	}

	// Dense call-count and activity series per function.
	callSeries := make(map[string][]float64)
	activitySeries := make(map[string][]float64)
	for i := range profiles {
		for fn, c := range profiles[i].Calls {
			if opts.Exclude != nil && opts.Exclude(fn) {
				continue
			}
			s, ok := callSeries[fn]
			if !ok {
				s = make([]float64, n)
				callSeries[fn] = s
			}
			s[i] = float64(c)
		}
		for fn, d := range profiles[i].Self {
			if opts.Exclude != nil && opts.Exclude(fn) {
				continue
			}
			s, ok := activitySeries[fn]
			if !ok {
				s = make([]float64, n)
				activitySeries[fn] = s
			}
			s[i] = d.Seconds()
		}
	}

	res.Groups = groupLoops(callSeries, n)
	res.Periodicities = findPeriodicities(activitySeries, n/3)
	return res
}

// groupLoops unions functions with correlated, similar-rate call series.
func groupLoops(series map[string][]float64, n int) []Group {
	type candidate struct {
		fn   string
		s    []float64
		rate float64
	}
	var cands []candidate
	for fn, s := range series {
		active := 0
		var total float64
		for _, v := range s {
			if v > 0 {
				active++
			}
			total += v
		}
		if float64(active) < minActiveFrac*float64(n) {
			continue
		}
		cands = append(cands, candidate{fn: fn, s: s, rate: total / float64(n)})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].fn < cands[j].fn })

	// Union-find over candidates.
	parent := make([]int, len(cands))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			ratio := cands[i].rate / cands[j].rate
			if ratio < 1 {
				ratio = 1 / ratio
			}
			if ratio > rateTolerance {
				continue
			}
			if Pearson(cands[i].s, cands[j].s) >= corrThreshold {
				parent[find(i)] = find(j)
			}
		}
	}
	members := make(map[int][]candidate)
	for i, c := range cands {
		r := find(i)
		members[r] = append(members[r], c)
	}
	var groups []Group
	for _, ms := range members {
		if len(ms) < 2 {
			continue // a loop is interesting once it ties functions together
		}
		sort.Slice(ms, func(i, j int) bool {
			if ms[i].rate != ms[j].rate {
				return ms[i].rate > ms[j].rate
			}
			return ms[i].fn < ms[j].fn
		})
		g := Group{RatePerInterval: ms[len(ms)-1].rate}
		for _, m := range ms {
			g.Functions = append(g.Functions, m.fn)
		}
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if len(groups[i].Functions) != len(groups[j].Functions) {
			return len(groups[i].Functions) > len(groups[j].Functions)
		}
		return groups[i].Functions[0] < groups[j].Functions[0]
	})
	return groups
}

// findPeriodicities scans each activity series' autocorrelation for its
// strongest peak up to maxLag.
func findPeriodicities(series map[string][]float64, maxLag int) []Periodicity {
	var out []Periodicity
	for fn, s := range series {
		lag, strength := DominantPeriod(s, maxLag)
		if lag >= 2 && strength >= minStrength {
			out = append(out, Periodicity{Function: fn, Period: lag, Strength: strength})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Strength != out[j].Strength {
			return out[i].Strength > out[j].Strength
		}
		return out[i].Function < out[j].Function
	})
	return out
}

// Pearson returns the correlation coefficient of two equal-length series,
// or 0 when either is constant.
func Pearson(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	var ma, mb float64
	for i := 0; i < n; i++ {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// Autocorrelation returns the normalized autocorrelation of s at the given
// lag (mean-removed, biased estimator), or 0 for constant series or
// out-of-range lags.
func Autocorrelation(s []float64, lag int) float64 {
	n := len(s)
	if lag <= 0 || lag >= n {
		return 0
	}
	var mean float64
	for _, v := range s {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		d := s[i] - mean
		den += d * d
	}
	if den == 0 {
		return 0
	}
	for i := 0; i+lag < n; i++ {
		num += (s[i] - mean) * (s[i+lag] - mean)
	}
	return num / den
}

// DominantPeriod returns the lag in [2, maxLag] with the highest
// autocorrelation that is also a local peak, plus its strength. It returns
// (0, 0) when no qualifying peak exists.
func DominantPeriod(s []float64, maxLag int) (int, float64) {
	if maxLag >= len(s) {
		maxLag = len(s) - 1
	}
	bestLag, bestVal := 0, 0.0
	prev := Autocorrelation(s, 1)
	for lag := 2; lag <= maxLag; lag++ {
		cur := Autocorrelation(s, lag)
		next := 0.0
		if lag+1 <= maxLag {
			next = Autocorrelation(s, lag+1)
		}
		isPeak := cur >= prev && cur >= next
		if isPeak && cur > bestVal {
			bestLag, bestVal = lag, cur
		}
		prev = cur
	}
	return bestLag, bestVal
}
