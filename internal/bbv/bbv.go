// Package bbv implements the hardware-centric phase-detection baseline the
// paper positions itself against (§II): SimPoint-style basic-block-vector
// clustering (Sherwood et al.). Each interval is summarized by its basic-
// block execution vector — how often each block ran — L1-normalized and
// randomly projected to a low dimension before k-means, exactly SimPoint's
// recipe. Comparing its interval labels with the source-oriented detector's
// quantifies the paper's §II claim that the two views overlap but are not
// the same (citing Sherwood et al. [7]).
//
// Block counts come from the coverage collector (package gcov), whose
// per-function block counters play the role of basic-block profiles.
package bbv

import (
	"fmt"
	"sort"
	"time"

	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/gcov"
	"github.com/incprof/incprof/internal/xmath"
)

// Options configures the BBV analysis.
type Options struct {
	// Dims is the random-projection dimensionality; 0 means 15,
	// SimPoint's default.
	Dims int
	// KMax bounds the k-means sweep; 0 means 8, matching the source-side
	// detector for comparability.
	KMax int
	// Seed drives the projection and clustering.
	Seed uint64
	// Exclude drops blocks of the named functions (e.g. MPI wrappers).
	Exclude func(name string) bool
}

func (o Options) withDefaults() Options {
	if o.Dims == 0 {
		o.Dims = 15
	}
	if o.KMax == 0 {
		o.KMax = 8
	}
	return o
}

// Result is the BBV phase analysis output.
type Result struct {
	// Assign labels each interval with its BBV phase.
	Assign []int
	// K is the selected number of phases.
	K int
	// WCSS is the k-means sweep curve over the projected vectors.
	WCSS []float64
	// Dims is the projected dimensionality used.
	Dims int
}

// Phases clusters the intervals of a coverage collection by their
// basic-block vectors.
func Phases(snaps []*gcov.Snapshot, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	profiles, err := gcov.Difference(snaps)
	if err != nil {
		return nil, err
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("bbv: no intervals")
	}
	// Column space: every function with blocks anywhere.
	seen := make(map[string]bool)
	for i := range profiles {
		for fn, d := range profiles[i].Self {
			if d > 0 && (opts.Exclude == nil || !opts.Exclude(fn)) {
				seen[fn] = true
			}
		}
	}
	if len(seen) == 0 {
		return nil, fmt.Errorf("bbv: no block activity")
	}
	names := make([]string, 0, len(seen))
	for fn := range seen {
		names = append(names, fn)
	}
	sort.Strings(names)

	// Raw BBVs: per-interval block counts, L1-normalized (SimPoint
	// normalizes each vector so intervals of different lengths compare).
	raw := make([][]float64, len(profiles))
	for i := range profiles {
		row := make([]float64, len(names))
		var total float64
		for j, fn := range names {
			// gcov.Difference scales one block to one pseudo-
			// microsecond; undo the scaling to recover counts.
			row[j] = float64(profiles[i].Self[fn] / time.Microsecond)
			total += row[j]
		}
		if total > 0 {
			for j := range row {
				row[j] /= total
			}
		}
		raw[i] = row
	}

	projected := Project(raw, opts.Dims, opts.Seed)
	results, err := cluster.SweepCSR(xmath.NewCSRFromDense(projected), opts.KMax, cluster.Options{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	best := cluster.SelectElbow(results)
	res := &Result{Assign: best.Assign, K: best.K, Dims: opts.Dims}
	res.WCSS = make([]float64, len(results))
	for i, r := range results {
		res.WCSS[i] = r.WCSS
	}
	return res, nil
}

// Project reduces vectors to dims dimensions with a seeded ±1 random
// projection — SimPoint's dimensionality reduction. Input narrower than
// dims is returned as-is (copied).
func Project(rows [][]float64, dims int, seed uint64) [][]float64 {
	if len(rows) == 0 {
		return nil
	}
	width := len(rows[0])
	if width <= dims {
		out := make([][]float64, len(rows))
		for i, r := range rows {
			out[i] = append([]float64(nil), r...)
		}
		return out
	}
	rng := xmath.NewRNG(seed)
	// proj[d][j] in {-1, +1}.
	proj := make([][]float64, dims)
	for d := range proj {
		proj[d] = make([]float64, width)
		for j := range proj[d] {
			if rng.Uint64()&1 == 0 {
				proj[d][j] = 1
			} else {
				proj[d][j] = -1
			}
		}
	}
	out := make([][]float64, len(rows))
	for i, r := range rows {
		v := make([]float64, dims)
		for d := 0; d < dims; d++ {
			var s float64
			p := proj[d]
			for j, x := range r {
				s += p[j] * x
			}
			v[d] = s
		}
		out[i] = v
	}
	return out
}
