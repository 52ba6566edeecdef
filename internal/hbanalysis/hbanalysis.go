// Package hbanalysis derives performance results from AppEKG heartbeat
// records — the use the paper builds toward ("as a history of an
// application is built up this data can be used to identify when the
// application is running poorly and when it is running well", §III; "our
// future work in AppEKG will involve researching effective ways of deriving
// performance results from this data", §III-A).
//
// Two capabilities:
//
//   - Summarize: per-heartbeat descriptive statistics over one run
//     (activity, beat rate, beat duration).
//   - Baseline/Check: build a per-heartbeat statistical baseline from
//     healthy reference runs, then flag intervals of a new run whose beat
//     durations or rates deviate by more than a z-score threshold — the
//     "running poorly" detector, suitable for correlating with system data.
package hbanalysis

import (
	"fmt"
	"math"
	"sort"

	"github.com/incprof/incprof/internal/heartbeat"
	"github.com/incprof/incprof/internal/xmath"
)

// SiteSummary is the per-heartbeat digest of one run.
type SiteSummary struct {
	HB heartbeat.ID
	// Name is the registered label, if any.
	Name string
	// ActiveIntervals counts intervals with at least one completed beat.
	ActiveIntervals int
	// TotalBeats is the run-wide completed beat count.
	TotalBeats int64
	// Rate summarizes beats per active interval.
	Rate xmath.Welford
	// Duration summarizes the per-interval mean beat durations, in
	// seconds.
	Duration xmath.Welford
}

// Summarize digests one run's records. nameOf may be nil.
func Summarize(recs []heartbeat.Record, nameOf func(heartbeat.ID) string) []SiteSummary {
	byID := make(map[heartbeat.ID]*SiteSummary)
	for _, r := range recs {
		s, ok := byID[r.HB]
		if !ok {
			s = &SiteSummary{HB: r.HB}
			if nameOf != nil {
				s.Name = nameOf(r.HB)
			}
			byID[r.HB] = s
		}
		s.ActiveIntervals++
		s.TotalBeats += r.Count
		s.Rate.Add(float64(r.Count))
		s.Duration.Add(r.MeanDuration.Seconds())
	}
	out := make([]SiteSummary, 0, len(byID))
	for _, s := range byID {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].HB < out[j].HB })
	return out
}

// Baseline is a per-heartbeat statistical reference built from healthy
// runs. Alongside run-global statistics it keeps per-interval statistics:
// repeated runs of the same configuration align interval-for-interval, so a
// structurally slow interval (e.g. a mesh adaptation every run) is expected
// there and only there — exactly the "history of an application" the paper
// envisions comparing against.
type Baseline struct {
	rate     map[heartbeat.ID]xmath.Welford
	duration map[heartbeat.ID]xmath.Welford

	intervalRate     map[intervalKey]xmath.Welford
	intervalDuration map[intervalKey]xmath.Welford

	runs int
}

type intervalKey struct {
	hb       heartbeat.ID
	interval int
}

// NewBaseline folds one or more reference runs into a baseline. At least
// one run with at least one record is required.
func NewBaseline(runs ...[]heartbeat.Record) (*Baseline, error) {
	b := &Baseline{
		rate:             make(map[heartbeat.ID]xmath.Welford),
		duration:         make(map[heartbeat.ID]xmath.Welford),
		intervalRate:     make(map[intervalKey]xmath.Welford),
		intervalDuration: make(map[intervalKey]xmath.Welford),
	}
	total := 0
	for _, recs := range runs {
		for _, r := range recs {
			w := b.rate[r.HB]
			w.Add(float64(r.Count))
			b.rate[r.HB] = w
			d := b.duration[r.HB]
			d.Add(r.MeanDuration.Seconds())
			b.duration[r.HB] = d

			k := intervalKey{r.HB, r.Interval}
			iw := b.intervalRate[k]
			iw.Add(float64(r.Count))
			b.intervalRate[k] = iw
			id := b.intervalDuration[k]
			id.Add(r.MeanDuration.Seconds())
			b.intervalDuration[k] = id
			total++
		}
		b.runs++
	}
	if total == 0 {
		return nil, fmt.Errorf("hbanalysis: baseline needs at least one record")
	}
	return b, nil
}

// Runs reports how many reference runs the baseline folds in.
func (b *Baseline) Runs() int { return b.runs }

// Known reports whether the baseline has data for a heartbeat ID.
func (b *Baseline) Known(id heartbeat.ID) bool {
	_, ok := b.rate[id]
	return ok
}

// AnomalyKind classifies a deviation.
type AnomalyKind int

const (
	// DurationHigh: beats took much longer than the baseline.
	DurationHigh AnomalyKind = iota
	// RateLow: far fewer beats completed than the baseline.
	RateLow
	// RateHigh: far more beats completed than the baseline.
	RateHigh
	// UnknownSite: a heartbeat ID the baseline never saw.
	UnknownSite
)

// String names the kind.
func (k AnomalyKind) String() string {
	switch k {
	case DurationHigh:
		return "duration-high"
	case RateLow:
		return "rate-low"
	case RateHigh:
		return "rate-high"
	case UnknownSite:
		return "unknown-site"
	default:
		return fmt.Sprintf("AnomalyKind(%d)", int(k))
	}
}

// Anomaly is one flagged deviation.
type Anomaly struct {
	HB       heartbeat.ID
	Interval int
	Kind     AnomalyKind
	// Score is the deviation in baseline standard deviations (z-score);
	// 0 for UnknownSite.
	Score float64
	// Observed and Expected give the offending value and the baseline
	// mean (seconds for durations, beats for rates).
	Observed, Expected float64
}

// The anomaly thresholds.
const (
	// zThreshold is the minimum |z-score| to flag.
	zThreshold = 4
	// minSigmaFrac floors the baseline standard deviation at this fraction
	// of the mean, so near-constant baselines don't flag measurement noise.
	minSigmaFrac = 0.05
)

// Check flags intervals of a run that deviate from the baseline, ordered by
// descending score. When the baseline has seen a record's exact (heartbeat,
// interval) slot — runs of a fixed configuration align that way — the
// per-interval statistics judge it, so structurally slow intervals are only
// anomalous if they misbehave relative to themselves; otherwise the
// run-global statistics apply. A value is anomalous at |z| > 4, with the
// baseline's standard deviation floored at 5 % of its mean.
func (b *Baseline) Check(recs []heartbeat.Record) []Anomaly {
	var out []Anomaly
	for _, r := range recs {
		if !b.Known(r.HB) {
			out = append(out, Anomaly{HB: r.HB, Interval: r.Interval, Kind: UnknownSite})
			continue
		}
		// Per-interval statistics need a few observations before they
		// beat the run-global view; below that, integer count jitter
		// dominates their tiny samples.
		const minIntervalObs = 3
		k := intervalKey{r.HB, r.Interval}
		dur := b.duration[r.HB]
		if iw, ok := b.intervalDuration[k]; ok && iw.N() >= minIntervalObs {
			dur = iw
		}
		if z := zscore(r.MeanDuration.Seconds(), dur); z > zThreshold && r.MeanDuration.Seconds() > dur.Mean() {
			out = append(out, Anomaly{
				HB: r.HB, Interval: r.Interval, Kind: DurationHigh,
				Score: z, Observed: r.MeanDuration.Seconds(), Expected: dur.Mean(),
			})
		}
		rate := b.rate[r.HB]
		if iw, ok := b.intervalRate[k]; ok && iw.N() >= minIntervalObs {
			rate = iw
		}
		if z := zscore(float64(r.Count), rate); z > zThreshold {
			kind := RateHigh
			if float64(r.Count) < rate.Mean() {
				kind = RateLow
			}
			out = append(out, Anomaly{
				HB: r.HB, Interval: r.Interval, Kind: kind,
				Score: z, Observed: float64(r.Count), Expected: rate.Mean(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].HB != out[j].HB {
			return out[i].HB < out[j].HB
		}
		return out[i].Interval < out[j].Interval
	})
	return out
}

// zscore returns |x - mean| / max(sigma, minSigmaFrac*|mean|); one-sided
// callers compare against the mean themselves.
func zscore(x float64, w xmath.Welford) float64 {
	sigma := w.Stddev()
	if floor := minSigmaFrac * math.Abs(w.Mean()); sigma < floor {
		sigma = floor
	}
	if sigma == 0 {
		if x == w.Mean() {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(x-w.Mean()) / sigma
}

// SlowdownFactor estimates a run's overall slowdown versus the baseline as
// the beat-duration-weighted mean ratio of observed to expected durations.
// A healthy run scores ~1.0.
func (b *Baseline) SlowdownFactor(recs []heartbeat.Record) float64 {
	var num, den float64
	for _, r := range recs {
		if !b.Known(r.HB) {
			continue
		}
		dur := b.duration[r.HB]
		expected := dur.Mean()
		if expected <= 0 {
			continue
		}
		weight := float64(r.Count) * expected
		num += weight * (r.MeanDuration.Seconds() / expected)
		den += weight
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// FormatAnomaly renders one anomaly for logs.
func FormatAnomaly(a Anomaly) string {
	switch a.Kind {
	case UnknownSite:
		return fmt.Sprintf("interval %d: heartbeat %d unknown to baseline", a.Interval, a.HB)
	case DurationHigh:
		return fmt.Sprintf("interval %d: hb%d duration %.3fs vs expected %.3fs (z=%.1f)",
			a.Interval, a.HB, a.Observed, a.Expected, a.Score)
	default:
		return fmt.Sprintf("interval %d: hb%d rate %.0f vs expected %.1f (z=%.1f, %s)",
			a.Interval, a.HB, a.Observed, a.Expected, a.Score, a.Kind)
	}
}
