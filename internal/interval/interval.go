// Package interval turns the cumulative snapshots dumped by the IncProf
// collector into per-interval profiles and clustering feature matrices.
//
// "The incremental profile data is written out by gprof as totals since the
// beginning of the program, so the first step is to subtract the previous
// interval from each interval to create interval profile data. Each interval
// is then represented as a tuple of function execution times (the gprof
// 'self' time), where each unique function is an attribute dimension of the
// data." (paper §V-A)
package interval

import (
	"fmt"
	"time"

	"github.com/incprof/incprof/internal/par"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/xmath"
)

// Profile is the activity of one collection interval.
type Profile struct {
	// Index is the 0-based interval number.
	Index int
	// Start and End bound the interval in virtual time since run start.
	Start, End time.Duration
	// Self maps function name to sampled self time within the interval
	// (gprof's 'self' seconds — the clustering feature).
	Self map[string]time.Duration
	// ExactSelf maps function name to exactly-accounted self time within
	// the interval (reproduction extension, for the A3 ablation).
	ExactSelf map[string]time.Duration
	// Calls maps function name to the number of invocations within the
	// interval (drives Algorithm 1's sort and body/loop tagging).
	Calls map[string]int64
	// Repaired marks a profile synthesized by DifferenceRobust's gap
	// repair (split/scaled spans, post-restart resyncs) rather than
	// observed directly. Downstream consumers treat repaired intervals as
	// low-confidence: the online tracker will not found phases from them.
	Repaired bool
}

// Active reports whether fn has non-zero sampled self time in the interval —
// the paper's definition of "active" for rank computation.
func (p *Profile) Active(fn string) bool { return p.Self[fn] > 0 }

// Difference converts cumulative snapshots into per-interval profiles by
// subtracting each snapshot from its successor; the first snapshot is its
// own interval (cumulative from program start). Snapshots must be in
// ascending Seq/Timestamp order. Counters are cumulative and must be
// non-decreasing; a regression is reported as an error since it indicates
// corrupted collection.
//
// Difference uses the full GOMAXPROCS worker budget; DifferenceP takes an
// explicit bound.
func Difference(snaps []*profile.Sample) ([]Profile, error) {
	return DifferenceP(snaps, 0)
}

// DifferenceP is Difference on a worker pool bounded by parallelism (0 means
// GOMAXPROCS, 1 forces serial). Each interval depends only on its own
// snapshot pair (snaps[i-1], snaps[i]) and snapshots are never mutated, so
// the pairs diff concurrently; profiles are written by index and the
// lowest-index validation error wins, making the output identical to the
// serial loop's.
func DifferenceP(snaps []*profile.Sample, parallelism int) ([]Profile, error) {
	profiles := make([]Profile, len(snaps))
	err := par.ForError(len(snaps), parallelism, func(i int) error {
		var prev *profile.Sample
		if i > 0 {
			prev = snaps[i-1]
		}
		p, err := StrictPair(prev, snaps[i])
		if err != nil {
			return err
		}
		p.Index = i
		profiles[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return profiles, nil
}

// StrictPair differences one cumulative snapshot against its predecessor
// under Difference's strict validation: monotone timestamps, a constant
// sample period, and non-decreasing counters, any violation an error. prev
// is nil for the first snapshot of a run (the profile is then cumulative
// from program start). The returned Profile's Index is left zero; drivers
// set it to the interval's position in their own stream.
//
// StrictPair is the single strict-differencing kernel: the batch pool
// (DifferenceP) and the streaming engine's incremental differencer both call
// it, so the two paths cannot diverge. It builds the profile with the robust
// kernel's makeProfile.
func StrictPair(prev, s *profile.Sample) (Profile, error) {
	if prev == nil {
		return makeProfile(s, nil, 0, s.Timestamp), nil
	}
	if s.Timestamp < prev.Timestamp {
		return Profile{}, fmt.Errorf("interval: snapshot %d at %v precedes snapshot %d at %v",
			s.Seq, s.Timestamp, prev.Seq, prev.Timestamp)
	}
	if s.SamplePeriod != prev.SamplePeriod {
		return Profile{}, fmt.Errorf("interval: sample period changed between snapshots %d and %d", prev.Seq, s.Seq)
	}
	if fn, ok := regressed(prev, s); ok {
		return Profile{}, fmt.Errorf("interval: cumulative counter for %q regressed between snapshots %d and %d",
			fn, prev.Seq, s.Seq)
	}
	return makeProfile(s, prev, prev.Timestamp, s.Timestamp), nil
}

// regressed reports the first function of s whose cumulative samples, self
// time, or calls fell below its record in prev: the strict kernel's error
// and the robust kernel's resync trigger. Both Funcs lists are sorted by
// name, so one merge walk pairs the records.
func regressed(prev, s *profile.Sample) (string, bool) {
	j := 0
	for _, rec := range s.Funcs {
		for j < len(prev.Funcs) && prev.Funcs[j].Name < rec.Name {
			j++
		}
		var prevRec profile.FuncRecord
		if j < len(prev.Funcs) && prev.Funcs[j].Name == rec.Name {
			prevRec = prev.Funcs[j]
		}
		if rec.Samples < prevRec.Samples || rec.SelfTime < prevRec.SelfTime || rec.Calls < prevRec.Calls {
			return rec.Name, true
		}
	}
	return "", false
}

// FeatureKind selects which per-function quantity becomes the clustering
// feature.
type FeatureKind int

const (
	// SampledSelf uses gprof-style sampled self seconds — the paper's
	// choice.
	SampledSelf FeatureKind = iota
	// ExactSelf uses exactly-accounted self seconds (ablation A3).
	ExactSelf
	// SelfPlusCalls appends per-function call counts as extra dimensions
	// (the paper tried adding call counts and found it did not help —
	// ablation A3).
	SelfPlusCalls
)

// String names the feature kind for reports.
func (k FeatureKind) String() string {
	switch k {
	case SampledSelf:
		return "sampled-self"
	case ExactSelf:
		return "exact-self"
	case SelfPlusCalls:
		return "self+calls"
	default:
		return fmt.Sprintf("FeatureKind(%d)", int(k))
	}
}

// FeatureOptions configures FeaturesCSR.
type FeatureOptions struct {
	Kind FeatureKind
	// Exclude drops functions (by name) from the feature space, e.g.
	// communication pseudo-functions when studying compute phases.
	Exclude func(name string) bool
}

// Matrix is the clustering input: one row per interval, one column per
// function observed anywhere in the run, held in flat CSR form — only each
// row's non-zero cells are stored, so memory is O(non-zero cells) however
// wide the symbol space grows.
type Matrix struct {
	// FuncNames labels the columns; for SelfPlusCalls the call-count
	// columns reuse the same names with a "#calls:" prefix, appended
	// after all time columns.
	FuncNames []string
	// Sparse holds one row per interval, in interval order.
	Sparse *xmath.CSR
}

// Dims returns the dimensionality of the feature space.
func (m *Matrix) Dims() int { return m.Sparse.NumCols }

// NumRows returns the number of intervals (rows).
func (m *Matrix) NumRows() int { return m.Sparse.NumRows() }

// RowEuclidean returns the Euclidean distance from row i to the dense vector
// v (length Dims), bit-identical to the dense kernel on the scattered row
// (xmath csr.go).
func (m *Matrix) RowEuclidean(i int, v []float64) float64 {
	av, ac := m.Sparse.Row(i)
	return xmath.EuclideanPackedDense(av, ac, v)
}

// FeaturesCSR builds the clustering matrix from interval profiles. Only
// functions observed (non-zero feature) in at least one interval become
// dimensions; dimensions are ordered by name for determinism.
//
// FeaturesCSR is the batch form of MatrixBuilder — the streaming engine
// feeds the same builder one profile at a time — so both paths construct
// identical matrices by construction.
func FeaturesCSR(profiles []Profile, opts FeatureOptions) Matrix {
	b := NewMatrixBuilder(opts)
	for i := range profiles {
		b.Add(&profiles[i])
	}
	return b.CSRMatrix()
}

// Ranks computes the paper's per-function, per-phase rank: "the fraction of
// intervals in the phase that the function is active in (i.e., has a
// non-zero execution time)" (§V-B). members lists interval indices belonging
// to one phase.
func Ranks(profiles []Profile, members []int) map[string]float64 {
	if len(members) == 0 {
		return map[string]float64{}
	}
	counts := make(map[string]int)
	for _, idx := range members {
		for fn := range profiles[idx].Self {
			if profiles[idx].Active(fn) {
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
