// Package cluster implements the clustering machinery the paper's phase
// detection uses: k-means (with k-means++ seeding and Lloyd iterations) run
// for k = 1..8, the Elbow method for selecting k, the Silhouette method the
// paper also experimented with, and DBSCAN as the density-based baseline the
// paper evaluated and rejected (§V-A).
//
// Every entry takes the feature matrix in flat CSR form — packed values,
// column indices, and row offsets in three shared backing arrays — and the
// k-means hot path is exact-optimized (DESIGN.md §10, §14): feature rows are
// mostly zeros, so distances run on xmath's bit-identical packed kernels, and
// Lloyd assignment keeps Hamerly triangle-inequality bounds that skip
// provably-unchanged points. None of it changes a single output bit relative
// to the naive full-scan path — the determinism goldens and the exactness
// property tests in prune_test.go enforce that.
package cluster

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/par"
	"github.com/incprof/incprof/internal/xmath"
)

// Result is the outcome of one k-means run.
type Result struct {
	// K is the number of clusters requested.
	K int
	// Assign maps each point index to its cluster in [0, K).
	Assign []int
	// Centroids holds K centroid vectors.
	Centroids [][]float64
	// WCSS is the within-cluster sum of squared distances (inertia).
	WCSS float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
	// Sizes counts points per cluster.
	Sizes []int
}

// Options configures the k-means runs.
type Options struct {
	// MaxIterations bounds Lloyd iterations; 0 means 100.
	MaxIterations int
	// Restarts reruns the whole algorithm with fresh seeding and keeps
	// the lowest-WCSS result; 0 means 4. k = 1 runs one: its restarts
	// all converge to the same mean.
	Restarts int
	// Seed makes runs reproducible. The same seed always yields the same
	// clustering.
	Seed uint64
	// Parallelism bounds the worker pool SweepCSR fans k values and
	// restarts out on; 0 means GOMAXPROCS, 1 forces the serial path.
	// Every restart draws from its own seed-derived RNG and reductions
	// happen in index order, so the result is identical for every
	// Parallelism value given the same Seed.
	Parallelism int
	// Span, when non-nil, parents the tracing spans SweepCSR records.
	Span *obs.Span
}

func (o Options) withDefaults() Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 100
	}
	if o.Restarts == 0 {
		o.Restarts = 4
	}
	return o
}

// pointSet is the clusterer's view of the data: the caller's CSR matrix plus,
// on the dense path, the materialized rows. It is shared read-only by every
// restart and k of one call.
//
// Both representations compute identical bits (xmath csr.go), so the kernels
// are chosen purely on cost: when more than half the cells are non-zero the
// branchy packed merge loses to the dense loop, the set reports itself dense,
// and every distance runs on rows densified once. The choice depends only on
// the data, never on scheduling, so it cannot perturb determinism.
type pointSet struct {
	n, dim int
	csr    *xmath.CSR  // flat packed rows
	rows   [][]float64 // dense rows; nil on the sparse path
	sparse bool        // non-zero cells <= half of all cells
}

// newPointSet wraps a CSR matrix with zero copying on the sparse path; only
// a denser-than-half matrix is materialized (the documented fallback).
func newPointSet(m *xmath.CSR) *pointSet {
	ps := &pointSet{n: m.NumRows(), dim: m.NumCols, csr: m}
	ps.sparse = 2*m.NNZ() <= ps.n*ps.dim
	if !ps.sparse {
		ps.rows = m.Dense()
	}
	return ps
}

// row returns point i's packed values and column indices.
func (ps *pointSet) row(i int) ([]float64, []int32) { return ps.csr.Row(i) }

// sq is the point-to-point squared distance on the cheaper representation.
func (ps *pointSet) sq(i, j int) float64 {
	if ps.sparse {
		av, ac := ps.csr.Row(i)
		bv, bc := ps.csr.Row(j)
		return xmath.SquaredEuclideanPacked(av, ac, bv, bc)
	}
	return xmath.SquaredEuclidean(ps.rows[i], ps.rows[j])
}

// sqBounded is sq with the exact partial-sum early exit: once the running
// sum reaches limit the scan aborts with (partial, false). Callers that keep
// a running minimum treat an abort as "provably >= limit" — the minimum they
// hold cannot be beaten — so the early exit never changes a kept value.
func (ps *pointSet) sqBounded(i, j int, limit float64) (float64, bool) {
	if ps.sparse {
		av, ac := ps.csr.Row(i)
		bv, bc := ps.csr.Row(j)
		return xmath.SquaredEuclideanPackedBounded(av, ac, bv, bc, limit)
	}
	return xmath.SquaredEuclideanBounded(ps.rows[i], ps.rows[j], limit)
}

// sqToDense is the squared distance from point i to a dense vector of length
// dim (a centroid).
func (ps *pointSet) sqToDense(i int, v []float64) float64 {
	if ps.sparse {
		av, ac := ps.csr.Row(i)
		return xmath.SquaredEuclideanPackedDense(av, ac, v)
	}
	return xmath.SquaredEuclidean(ps.rows[i], v)
}

// scatter writes point i densely into dst (length dim).
func (ps *pointSet) scatter(i int, dst []float64) {
	if ps.rows != nil {
		copy(dst, ps.rows[i])
		return
	}
	ps.csr.ScatterRow(i, dst)
}

// copyRow returns a fresh dense copy of point i.
func (ps *pointSet) copyRow(i int) []float64 {
	out := make([]float64, ps.dim)
	ps.scatter(i, out)
	return out
}

// validateCSR checks the non-empty contract once per entry; row uniformity
// holds by construction.
func validateCSR(m *xmath.CSR) error {
	if m == nil || m.NumRows() == 0 {
		return fmt.Errorf("cluster: no points")
	}
	return nil
}

// kmeansCSR clusters the rows of m into k groups with k-means++ seeding and
// Lloyd iterations, keeping the lowest-WCSS of Options.Restarts runs; k must
// satisfy 1 <= k <= m.NumRows(). SweepCSR runs it for every k.
func kmeansCSR(m *xmath.CSR, k int, opts Options) (*Result, error) {
	if err := validateCSR(m); err != nil {
		return nil, err
	}
	if k < 1 || k > m.NumRows() {
		return nil, fmt.Errorf("cluster: k=%d out of range [1, %d]", k, m.NumRows())
	}
	return kmeansValidated(newPointSet(m), nil, k, opts), nil
}

// kmeansValidated is kmeansCSR after validation: the restart fan-out over an
// already-checked, already-packed point set. pm, when non-nil, is the
// sweep's squared pairwise matrix, which seeding reads instead of measuring.
func kmeansValidated(ps *pointSet, pm *pairMatrix, k int, opts Options) *Result {
	opts = opts.withDefaults()
	if k == 1 {
		// Every k=1 restart converges to the one mean after the same
		// passes, so all tie on WCSS and restart 0 would win: run only it.
		opts.Restarts = 1
	}
	// Derive one seed per restart from the master stream up front, so each
	// restart owns an independent RNG and the fan-out below is free to run
	// restarts in any order without perturbing the result.
	seedRNG := xmath.NewRNG(opts.Seed)
	seeds := make([]uint64, opts.Restarts)
	for r := range seeds {
		seeds[r] = seedRNG.Uint64()
	}
	results := make([]*Result, opts.Restarts)
	par.For(opts.Restarts, opts.Parallelism, func(r int) {
		results[r] = kmeansOnce(ps, pm, k, opts.MaxIterations, xmath.NewRNG(seeds[r]))
	})
	// Reduce in restart order; strict < makes the lowest-index restart win
	// ties, matching what a serial loop over the same seeds would keep.
	best := results[0]
	for _, res := range results[1:] {
		if res.WCSS < best.WCSS {
			best = res
		}
	}
	return best
}

func kmeansOnce(ps *pointSet, pm *pairMatrix, k, maxIter int, rng *xmath.RNG) *Result {
	sc := scratchPool.Get().(*lloydScratch)
	defer scratchPool.Put(sc)
	centroids := seedPlusPlus(ps, pm, k, rng, sc)
	return lloydScratched(ps, centroids, maxIter, sc)
}

// lloydScratch pools the per-run transient state — Hamerly bounds, previous
// centroids, drifts, the seeding state, the packed-centroid cache, and the
// reseat claim bitmap — so a sweep's restarts × k fan-out does not
// churn the allocator, and no Lloyd iteration allocates at all (the batch
// alloc test in alloc_test.go enforces iteration-independence). Every field
// is fully overwritten before it is read, so reuse cannot leak state between
// runs (the parallelism-invariance goldens would catch it if it did).
type lloydScratch struct {
	u, l  []float64 // Hamerly upper/lower bounds per point
	drift []float64 // per-centroid movement this iteration
	half  []float64 // half the distance to each centroid's nearest peer
	prev  []float64 // previous centroids, k×dim flat
	taken []bool    // reseat claim bitmap, one per point

	// Seeding state, one entry per point: the nearest seed and the exact
	// smallest and second-smallest squared distances over the seeds so
	// far. dist doubles as the k-means++ weights; once all k seeds are in,
	// the three are what a first assignScan pass would return.
	near   []int
	dist   []float64
	second []float64

	// Packed form of the current centroids, rebuilt at the top of every
	// assignment pass on the sparse path: centroid c's non-zeros are
	// cv[cp[c]:cp[c+1]] at columns cc[cp[c]:cp[c+1]]; cdense[c] records
	// that c is majority-non-zero, so the packed-vs-dense point-centroid
	// kernel choice is per centroid (both are bit-identical, see xmath
	// csr.go — the choice is pure cost).
	cv     []float64
	cc     []int32
	cp     []int
	cdense []bool
}

var scratchPool = sync.Pool{New: func() any { return new(lloydScratch) }}

func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// packCentroids refreshes the scratch's packed-centroid cache. Capacity for
// the worst case (k fully-dense centroids) is reserved up front by
// lloydScratched, so repacking never allocates mid-run.
func packCentroids(centroids [][]float64, dim int, sc *lloydScratch) {
	sc.cv = sc.cv[:0]
	sc.cc = sc.cc[:0]
	for c, cent := range centroids {
		sc.cp[c] = len(sc.cv)
		for d, v := range cent {
			if v != 0 {
				sc.cv = append(sc.cv, v)
				sc.cc = append(sc.cc, int32(d))
			}
		}
		sc.cdense[c] = 2*(len(sc.cv)-sc.cp[c]) > dim
	}
	sc.cp[len(centroids)] = len(sc.cv)
}

// centSq is the bounded point-to-centroid squared distance on the sparse
// path, choosing the packed-packed or packed-dense kernel per centroid. Both
// kernels are bit-identical to the dense one and abandonment is exact, so the
// choice never affects an output bit.
func (sc *lloydScratch) centSq(av []float64, ac []int32, centroids [][]float64, c int, limit float64) (float64, bool) {
	if sc.cdense[c] {
		return xmath.SquaredEuclideanPackedDenseBounded(av, ac, centroids[c], limit)
	}
	lo, hi := sc.cp[c], sc.cp[c+1]
	return xmath.SquaredEuclideanPackedBounded(av, ac, sc.cv[lo:hi], sc.cc[lo:hi], limit)
}

// centSqFull is the exact (unbounded) point-to-centroid squared distance on
// the packed-centroid cache. Only valid while the cache matches centroids —
// i.e. after an assignPass whose packCentroids saw the current values.
func (sc *lloydScratch) centSqFull(av []float64, ac []int32, centroids [][]float64, c int) float64 {
	if sc.cdense[c] {
		return xmath.SquaredEuclideanPackedDense(av, ac, centroids[c])
	}
	lo, hi := sc.cp[c], sc.cp[c+1]
	return xmath.SquaredEuclideanPacked(av, ac, sc.cv[lo:hi], sc.cc[lo:hi])
}

// pruneEps returns the safety margin the Hamerly comparisons keep between a
// bound and the threshold it is tested against. scale is the largest
// distance-domain magnitude the run has touched; any floating-point error the
// bound maintenance can accumulate is a handful of ulps of that scale
// (~1e-13·scale over 100 iterations), so a 1e-9·scale margin dominates it.
// Pruning therefore only ever skips a centroid whose distance exceeds the
// current assignment's by more than the margin — a decision the naive strict-<
// scan would make identically — and every closer call falls through to the
// exact full scan. That is the invariant that keeps the pruned path
// bit-identical to the naive one.
func pruneEps(scale float64) float64 { return 1e-9 * scale }

// lloydScratched iterates assignment and centroid updates to convergence
// from centroids (which it owns and mutates). They come from seedPlusPlus
// on this scratch, whose carried nearest-seed state is the first
// assignment pass.
func lloydScratched(ps *pointSet, centroids [][]float64, maxIter int, sc *lloydScratch) *Result {
	n := ps.n
	dim := ps.dim
	k := len(centroids)
	assign := make([]int, n)
	sizes := make([]int, k)
	sc.u = grow(sc.u, n)
	sc.l = grow(sc.l, n)
	sc.drift = grow(sc.drift, k)
	sc.half = grow(sc.half, k)
	sc.prev = grow(sc.prev, k*dim)
	sc.taken = growBool(sc.taken, n)
	if ps.sparse {
		// Reserve worst-case packed-centroid capacity once, so per-pass
		// repacking is allocation-free.
		sc.cv = grow(sc.cv, k*dim)[:0]
		sc.cc = growInt32(sc.cc, k*dim)[:0]
		sc.cp = growInt(sc.cp, k+1)
		sc.cdense = growBool(sc.cdense, k)
	}
	u, l := sc.u, sc.l

	// scale tracks the largest sqrt-domain magnitude seen (distances and
	// drifts); pruneEps derives the bit-exactness safety margin from it.
	var scale float64
	initialized := false

	// assignPass reassigns every point. The first pass reads the nearest
	// seed and both distances seeding already measured and initializes the
	// bounds; later passes skip points whose bounds prove the assignment
	// cannot change, tighten the upper bound for the rest, and only fall
	// back to the exact full scan when both tests fail.
	assignPass := func() bool {
		changed := false
		if ps.sparse {
			packCentroids(centroids, dim, sc)
		}
		if !initialized {
			initialized = true
			for i := 0; i < n; i++ {
				best, bd, sd := sc.near[i], sc.dist[i], sc.second[i]
				assign[i] = best
				u[i] = math.Sqrt(bd)
				l[i] = math.Sqrt(sd)
				if !math.IsInf(l[i], 1) && l[i] > scale {
					scale = l[i]
				} else if u[i] > scale {
					scale = u[i]
				}
			}
			return true
		}
		halfDistances(centroids, sc.half)
		eps := pruneEps(scale)
		for i := 0; i < n; i++ {
			m := sc.half[assign[i]]
			if l[i] > m {
				m = l[i]
			}
			if u[i]+eps < m {
				continue
			}
			// Tighten the upper bound to the exact current distance — but
			// abandon even that once its partial sum proves the tightened
			// bound cannot prune either (dsq >= m² ⇒ du >= m up to an ulp,
			// far inside the eps margin). Abandoning just falls through to
			// the exact full scan, so it cannot change any output.
			var dsq float64
			var full bool
			if ps.sparse {
				av, ac := ps.row(i)
				dsq, full = sc.centSq(av, ac, centroids, assign[i], m*m)
			} else {
				dsq, full = xmath.SquaredEuclideanBounded(ps.rows[i], centroids[assign[i]], m*m)
			}
			if full {
				du := math.Sqrt(dsq)
				u[i] = du
				if du+eps < m {
					continue
				}
			}
			best, bd, sd := assignScan(ps, i, centroids, sc)
			u[i] = math.Sqrt(bd)
			l[i] = math.Sqrt(sd)
			if best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		return changed
	}

	iter := 0
	for ; iter < maxIter; iter++ {
		changed := assignPass()
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids, remembering the previous positions: the
		// Hamerly bounds need each centroid's drift.
		for c := range centroids {
			copy(sc.prev[c*dim:(c+1)*dim], centroids[c])
			for d := 0; d < dim; d++ {
				centroids[c][d] = 0
			}
			sizes[c] = 0
		}
		if ps.sparse {
			for i := 0; i < n; i++ {
				c := assign[i]
				sizes[c]++
				vals, cols := ps.row(i)
				cent := centroids[c]
				for t, d := range cols {
					cent[d] += vals[t]
				}
			}
		} else {
			for i, p := range ps.rows {
				c := assign[i]
				sizes[c]++
				for d, v := range p {
					centroids[c][d] += v
				}
			}
		}
		// Normalize every non-empty centroid first: the reseat below
		// measures distances against assigned centroids, which must all
		// be means already, not in-progress coordinate sums.
		for c := range centroids {
			if sizes[c] == 0 {
				continue
			}
			inv := 1 / float64(sizes[c])
			for d := range centroids[c] {
				centroids[c][d] *= inv
			}
		}
		takenReset := false
		for c := range centroids {
			if sizes[c] != 0 {
				continue
			}
			// Empty cluster: reseat on the point farthest from its
			// (normalized) centroid to keep k live clusters. Points
			// already claimed by another empty cluster this iteration
			// are skipped so two empties never collapse onto one. The
			// claim bitmap lives in the pooled scratch and is cleared
			// lazily — only iterations that actually reseat pay for it,
			// and none of them allocate. An unclaimed point always
			// remains: k ≤ n and some cluster is non-empty, so at most
			// k−1 < n empties claim one each.
			if !takenReset {
				takenReset = true
				for i := range sc.taken[:n] {
					sc.taken[i] = false
				}
			}
			far, dist := -1, -1.0
			for i := 0; i < n; i++ {
				if sc.taken[i] {
					continue
				}
				d := ps.sqToDense(i, centroids[assign[i]])
				if d > dist {
					far, dist = i, d
				}
			}
			ps.scatter(far, centroids[c])
			sc.taken[far] = true
		}
		// Drift-adjust the bounds: each point's upper bound loosens by its
		// own centroid's movement, the lower bound by the largest movement
		// of any OTHER centroid (the two-max refinement).
		var max1, max2 float64
		arg1 := -1
		for c := range centroids {
			d := xmath.Euclidean(sc.prev[c*dim:(c+1)*dim], centroids[c])
			sc.drift[c] = d
			if d > scale {
				scale = d
			}
			if d > max1 {
				max1, max2, arg1 = d, max1, c
			} else if d > max2 {
				max2 = d
			}
		}
		for i := 0; i < n; i++ {
			u[i] += sc.drift[assign[i]]
			if assign[i] == arg1 {
				l[i] -= max2
			} else {
				l[i] -= max1
			}
		}
	}
	// Final assignment pass and WCSS. The pass runs under the same bounds
	// (still valid: they were drift-adjusted after the last centroid
	// update), so converged points cost one exact distance each instead of
	// a k-way scan.
	assignPass()
	var wcss float64
	for c := range sizes {
		sizes[c] = 0
	}
	// The packed-centroid cache is fresh here — the final assignPass packed
	// the current centroids and nothing moved them since — so the WCSS sum
	// can run on the per-centroid packed kernels (identical bits to the
	// dense scatter form).
	for i := 0; i < n; i++ {
		c := assign[i]
		sizes[c]++
		if ps.sparse {
			av, ac := ps.row(i)
			wcss += sc.centSqFull(av, ac, centroids, c)
		} else {
			wcss += xmath.SquaredEuclidean(ps.rows[i], centroids[c])
		}
	}
	return &Result{K: k, Assign: assign, Centroids: centroids, WCSS: wcss, Iterations: iter, Sizes: sizes}
}

// assignScan scans every centroid exactly as the naive path does — ascending
// index, strict < — returning the winner plus the exact smallest and
// second-smallest squared distances. Centroids are abandoned mid-scan once
// their partial sum reaches the current second-best (see the bounded kernels
// in xmath): an abandoned centroid is proven to beat neither bound, so the
// winner and both bounds are exact. On the sparse path the kernel is chosen
// per centroid (packed-packed vs packed-dense); every kernel returns the same
// bits, so the choice is invisible in the output.
func assignScan(ps *pointSet, i int, centroids [][]float64, sc *lloydScratch) (best int, bestD, secondD float64) {
	best, bestD, secondD = 0, math.Inf(1), math.Inf(1)
	if ps.sparse {
		av, ac := ps.row(i)
		for c := range centroids {
			d, full := sc.centSq(av, ac, centroids, c, secondD)
			if !full {
				continue
			}
			if d < bestD {
				best, bestD, secondD = c, d, bestD
			} else if d < secondD {
				secondD = d
			}
		}
		return best, bestD, secondD
	}
	p := ps.rows[i]
	for c, cent := range centroids {
		d, full := xmath.SquaredEuclideanBounded(p, cent, secondD)
		if !full {
			continue
		}
		if d < bestD {
			best, bestD, secondD = c, d, bestD
		} else if d < secondD {
			secondD = d
		}
	}
	return best, bestD, secondD
}

// halfDistances fills half[c] with 0.5 × the distance from centroid c to its
// nearest other centroid — the Hamerly center-separation bound. A point
// within half[c] of centroid c cannot be closer to any other centroid.
func halfDistances(centroids [][]float64, half []float64) {
	for c := range centroids {
		half[c] = math.Inf(1)
	}
	for c := range centroids {
		for o := c + 1; o < len(centroids); o++ {
			d := xmath.Euclidean(centroids[c], centroids[o])
			if d < 2*half[c] {
				half[c] = d / 2
			}
			if d < 2*half[o] {
				half[o] = d / 2
			}
		}
	}
}

// seedPlusPlus picks k initial centroids with k-means++ weighting and leaves
// each point's nearest seed and its exact best and second-best squared
// distances over all k seeds in sc.near, sc.dist and sc.second: the state the
// first Lloyd assignment pass needs, so that pass scans nothing.
//
// Every seed is a copy of a point, so these are point-to-point distances:
// read from pm when the sweep shares silhouette's squared pairwise matrix,
// measured on the packed kernel otherwise. Seeds are visited in ascending
// order with assignScan's strict-< updates, and a scan abandoned at the
// current second-best proves the distance changes neither value, so the
// carried state is bit-identical to a full first assignScan (for finite
// features). The running best is the k-means++ weight; folding it per seed
// equals the naive re-scan because min over the same computed values is
// order-insensitive with first-index ties.
func seedPlusPlus(ps *pointSet, pm *pairMatrix, k int, rng *xmath.RNG, sc *lloydScratch) [][]float64 {
	n := ps.n
	sc.near = growInt(sc.near, n)
	sc.dist = grow(sc.dist, n)
	sc.second = grow(sc.second, n)
	near, best, second := sc.near, sc.dist, sc.second
	centroids := make([][]float64, 0, k)
	s := rng.Intn(n)
	for {
		c := len(centroids)
		centroids = append(centroids, ps.copyRow(s))
		var total float64
		for i := 0; i < n; i++ {
			d, full := 0.0, true
			switch {
			case pm != nil:
				d = pm.at(i, s)
			case c == 0:
				d = ps.sq(i, s)
			default:
				d, full = ps.sqBounded(i, s, second[i])
			}
			switch {
			case c == 0:
				near[i], best[i], second[i] = 0, d, math.Inf(1)
			case !full:
			case d < best[i]:
				near[i], best[i], second[i] = c, d, best[i]
			case d < second[i]:
				second[i] = d
			}
			total += best[i]
		}
		if len(centroids) == k {
			return centroids
		}
		if total == 0 {
			// All points coincide with centroids; any choice works.
			s = rng.Intn(n)
			continue
		}
		target := rng.Float64() * total
		var acc float64
		s = n - 1
		for i, d := range best[:n] {
			acc += d
			if acc >= target {
				s = i
				break
			}
		}
	}
}

// SweepCSR runs k-means for every k in [1, kmax] (clamped to the number of
// rows) and returns the results indexed by k-1. It is Points.Sweep on a point
// set prepared for elbow selection.
func SweepCSR(m *xmath.CSR, kmax int, opts Options) ([]*Result, error) {
	if kmax < 1 {
		return nil, fmt.Errorf("cluster: kmax=%d", kmax)
	}
	p, err := NewPoints(m, false)
	if err != nil {
		return nil, err
	}
	return p.Sweep(kmax, opts)
}

// Points is a feature matrix prepared once for a k sweep and the selection
// that follows it, so the two share their point-to-point distances. With
// silhouette selection the sweep fills the triangular pairwise matrix of
// squared distances before it starts; k-means++ seeding, and through it the
// first Lloyd pass of every run, reads from it, and SelectSilhouette then
// roots each cell once to score every k. Neither reuse changes an output
// bit: SweepCSR followed by SelectSilhouetteCSR returns the same results and
// the same choice.
type Points struct {
	ps         *pointSet
	silhouette bool        // the pairwise matrix is worth filling
	pm         *pairMatrix // squared distances until rooted; nil until filled
	rooted     bool        // pm holds distances, no longer their squares
}

// NewPoints validates m and prepares it for Sweep; silhouette says the
// caller will select k with SelectSilhouette. Release returns the pairwise
// matrix to its pool once the caller is done.
func NewPoints(m *xmath.CSR, silhouette bool) (*Points, error) {
	if err := validateCSR(m); err != nil {
		return nil, err
	}
	return &Points{ps: newPointSet(m), silhouette: silhouette}, nil
}

// Release returns the pairwise matrix, if any, to the shared pool. It may be
// called more than once; a later Sweep or SelectSilhouette fills the matrix
// again.
func (p *Points) Release() {
	if p.pm != nil {
		putPairMatrix(p.pm)
		p.pm, p.rooted = nil, false
	}
}

// fill computes the squared pairwise matrix if it is not there yet, under a
// cluster.pairwise span when parent is set.
func (p *Points) fill(parallelism int, parent *obs.Span) {
	if p.pm != nil {
		return
	}
	sp := parent.Child("cluster.pairwise")
	sp.SetInt("points", int64(p.ps.n))
	p.pm = pairwiseSquared(p.ps, parallelism)
	sp.End()
}

// Sweep runs k-means for every k in [1, kmax] (clamped to the number of
// rows) and returns the results indexed by k-1. Each k gets a distinct
// derived seed so restarts do not correlate across k.
//
// The k values fan out on a worker pool bounded by Options.Parallelism
// (restarts within each k fan out on the same budget); because every k owns
// a seed-derived RNG and writes only its own slot, the output is identical
// to the serial sweep for any Parallelism value.
//
// A silhouette point set fills its pairwise matrix first, when some k >= 2
// will be scored, so seeding measures nothing.
func (p *Points) Sweep(kmax int, opts Options) ([]*Result, error) {
	if kmax < 1 {
		return nil, fmt.Errorf("cluster: kmax=%d", kmax)
	}
	ps := p.ps
	if kmax > ps.n {
		kmax = ps.n
	}
	var pm *pairMatrix
	if p.silhouette && kmax >= 2 && !p.rooted {
		p.fill(opts.Parallelism, opts.Span)
		pm = p.pm
	}
	sweep := obs.Under(opts.Span, "cluster.sweep", 0)
	sweep.SetInt("kmax", int64(kmax)).SetInt("points", int64(ps.n))
	defer sweep.End()
	hist := obs.H("cluster.sweep.k")
	out := make([]*Result, kmax)
	err := par.ForError(kmax, opts.Parallelism, func(i int) error {
		k := i + 1
		o := opts
		o.Seed = opts.Seed + uint64(k)*0x9e3779b97f4a7c15
		// The per-k span is keyed by k, not the loop's completion order, so
		// the exported trace is identical at any Parallelism.
		sp := sweep.ChildKey("cluster.kmeans", uint64(k))
		var start time.Time
		if hist != nil {
			start = time.Now()
		}
		res := kmeansValidated(ps, pm, k, o)
		if hist != nil {
			hist.Observe(time.Since(start))
		}
		sp.SetInt("k", int64(k)).SetFloat("wcss", res.WCSS).SetInt("iterations", int64(res.Iterations))
		sp.End()
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
