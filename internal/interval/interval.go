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
	"slices"
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
	// Repaired marks a profile synthesized by RobustStream's gap
	// repair (split/scaled spans, post-restart resyncs) rather than
	// observed directly. Downstream consumers treat repaired intervals as
	// low-confidence: the live labeller will not found phases from them.
	Repaired bool
}

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
		d, err := StrictPair(prev, snaps[i], make([]Cell, 0, len(snaps[i].Funcs)))
		if err != nil {
			return err
		}
		profiles[i] = profileOf(d.Start, d.End, false, d.Cells, d.Name)
		profiles[i].Index = i
		return nil
	})
	if err != nil {
		return nil, err
	}
	return profiles, nil
}

// Delta is one interval as a differencing kernel hands it on: its bounds,
// whether gap repair synthesized it, and one Cell per function with
// activity, in name order. A cell's ID is the position of the function's
// record in the dump's Funcs, which Name maps back. A kernel reuses its
// Delta's storage: it is valid until the next call into the kernel.
type Delta struct {
	Start, End time.Duration // as Profile's
	Repaired   bool          // as Profile's
	Cells      []Cell

	funcs []profile.FuncRecord
}

// Name returns the name of the function a cell's ID numbers.
func (d *Delta) Name(id int32) string { return d.funcs[id].Name }

// StrictPair differences one cumulative snapshot against its predecessor
// under Difference's strict validation: monotone timestamps, a constant
// sample period, and non-decreasing counters, any violation an error. prev
// is nil for the first snapshot of a run (the interval is then cumulative
// from program start). The cells are appended to buf[:0].
//
// StrictPair is the single strict-differencing kernel: the batch pool
// (DifferenceP) and the streaming engine's incremental differencer both call
// it, so the two paths cannot diverge. It shares the merge walk, diff, with
// RobustStream.
func StrictPair(prev, s *profile.Sample, buf []Cell) (Delta, error) {
	d := Delta{End: s.Timestamp, funcs: s.Funcs}
	if prev != nil {
		if s.Timestamp < prev.Timestamp {
			return Delta{}, fmt.Errorf("interval: snapshot %d at %v precedes snapshot %d at %v",
				s.Seq, s.Timestamp, prev.Seq, prev.Timestamp)
		}
		if s.SamplePeriod != prev.SamplePeriod {
			return Delta{}, fmt.Errorf("interval: sample period changed between snapshots %d and %d", prev.Seq, s.Seq)
		}
		d.Start = prev.Timestamp
	}
	cells, fn, ok := diff(prev, s, buf[:0])
	if !ok {
		return Delta{}, fmt.Errorf("interval: cumulative counter for %q regressed between snapshots %d and %d",
			fn, prev.Seq, s.Seq)
	}
	d.Cells = cells
	return d, nil
}

// diff is the differencing kernel both drivers share: one merge walk over
// the name-sorted Funcs lists of s and base (nil: difference against zero)
// that appends to cells, in name order, each function's positive deltas of
// sampled self time, exact self time and calls. A function with none gets
// no cell; records repeating a name share one cell, a later record's
// positive delta replacing the earlier one's. Against a non-nil base the
// walk also checks that no counter fell: it stops at the first function
// whose cumulative samples, self time or calls fell below its base record,
// returning that name and false — the strict kernel's error and the robust
// kernel's resync trigger.
func diff(base, s *profile.Sample, cells []Cell) ([]Cell, string, bool) {
	j := 0
	for i := range s.Funcs {
		rec := &s.Funcs[i]
		var b profile.FuncRecord
		if base != nil {
			for j < len(base.Funcs) && base.Funcs[j].Name < rec.Name {
				j++
			}
			if j < len(base.Funcs) && base.Funcs[j].Name == rec.Name {
				b = base.Funcs[j]
			}
			if rec.Samples < b.Samples || rec.SelfTime < b.SelfTime || rec.Calls < b.Calls {
				return cells, rec.Name, false
			}
		}
		samples, self, calls := rec.Samples-b.Samples, rec.SelfTime-b.SelfTime, rec.Calls-b.Calls
		if samples <= 0 && self <= 0 && calls <= 0 {
			continue
		}
		if n := len(cells); n == 0 || s.Funcs[cells[n-1].ID].Name != rec.Name {
			cells = append(cells, Cell{ID: int32(i)})
		}
		c := &cells[len(cells)-1]
		if samples > 0 {
			c.Self = time.Duration(samples) * s.SamplePeriod
		}
		if self > 0 {
			c.ExactSelf = self
		}
		if calls > 0 {
			c.Calls = calls
		}
	}
	// A zero sample period leaves a cell of samples alone all zero.
	return slices.DeleteFunc(cells, Cell.empty), "", true
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
// feeds the same builder one interval's cells at a time — so both paths
// construct identical matrices by construction.
func FeaturesCSR(profiles []Profile, opts FeatureOptions) Matrix {
	b := NewMatrixBuilder(opts)
	for i := range profiles {
		b.Add(&profiles[i])
	}
	return b.CSRMatrix()
}
