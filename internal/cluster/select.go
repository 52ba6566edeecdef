package cluster

import (
	"math"
	"sync"

	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/par"
	"github.com/incprof/incprof/internal/xmath"
)

// ElbowVarianceThreshold is the explained-variance level ElbowK requires: k
// is chosen as the smallest cluster count whose WCSS retains at most 10% of
// the k=1 WCSS (i.e. the clustering explains >= 90% of the within-cluster
// variance).
const ElbowVarianceThreshold = 0.90

// ElbowK selects the number of clusters from a WCSS curve (indexed by k-1)
// with the explained-variance formulation of the Elbow method the paper
// applies to k = 1..8 (§V-A): the smallest k explaining at least 90% of the
// variance, i.e. wcss[k] <= (1 - threshold) * wcss[1]. When no k on the
// curve reaches the threshold, the maximum-distance-to-chord knee
// (ElbowKChord) decides.
//
// Degenerate curves are handled conservatively: with fewer than two points,
// or a flat / non-decreasing curve, ElbowK returns 1 (a single phase).
func ElbowK(wcss []float64) int {
	n := len(wcss)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return 1
	}
	y1, y2 := wcss[0], wcss[n-1]
	if y1 <= y2 {
		// Non-decreasing curve: no elbow; more clusters buy nothing.
		return 1
	}
	if y1 <= 1e-12 || (y1-y2)/y1 < 1e-9 {
		// Effectively flat, or WCSS(k=1) already indistinguishable
		// from zero (identical points up to float noise): one phase.
		return 1
	}
	cutoff := (1 - ElbowVarianceThreshold) * y1
	for k := 1; k <= n; k++ {
		if wcss[k-1] <= cutoff {
			return k
		}
	}
	return ElbowKChord(wcss)
}

// ElbowKChord is the maximum-distance-to-chord knee criterion: draw the
// chord from (1, wcss[0]) to (kmax, wcss[kmax-1]) and pick the k whose point
// lies farthest below it. It is the alternative elbow formulation kept for
// the A1 ablation and as ElbowK's fallback on gradual curves.
func ElbowKChord(wcss []float64) int {
	n := len(wcss)
	if n == 0 {
		return 0
	}
	if n <= 2 {
		return 1
	}
	x1, y1 := 1.0, wcss[0]
	x2, y2 := float64(n), wcss[n-1]
	if y1 <= y2 || y1 <= 1e-12 {
		return 1
	}
	// Normalize axes so the criterion is scale-invariant.
	dx, dy := x2-x1, y2-y1
	norm := math.Hypot(dx, dy)
	best, bestDist := 1, 0.0
	for k := 2; k < n; k++ {
		px, py := float64(k), wcss[k-1]
		// Signed perpendicular distance from (px,py) to the chord;
		// positive when below the chord for a decreasing curve. A point
		// above the chord is a convexity bump — the opposite of a knee —
		// so only below-chord points may be selected; when none lie
		// below, the curve has no knee and best stays 1.
		d := (dy*px - dx*py + x2*y1 - y2*x1) / norm
		if d > bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

// SelectElbow runs the sweep-and-pick the paper describes: take the WCSS of
// each result and return the elbow result. results must be a SweepCSR
// output.
func SelectElbow(results []*Result) *Result {
	if len(results) == 0 {
		return nil
	}
	wcss := make([]float64, len(results))
	for i, r := range results {
		wcss[i] = r.WCSS
	}
	k := ElbowK(wcss)
	if k < 1 {
		k = 1
	}
	return results[k-1]
}

// SilhouetteCSR returns the mean silhouette coefficient of a clustering of
// the rows of m: for each point, (b-a)/max(a,b) where a is its mean distance
// to its own cluster's other points and b the smallest mean distance to
// another cluster. Values near 1 indicate compact, well-separated clusters.
// Points in singleton clusters contribute 0, and a single-cluster result
// scores 0 by convention.
//
// The O(n²) pairwise distances are computed once into a pooled triangular
// matrix and its rows are split across a worker pool bounded by parallelism
// (0 means GOMAXPROCS, 1 forces serial); every point's contribution is
// stored by index and reduced in index order, so the score is bit-identical
// for every parallelism value.
func SilhouetteCSR(m *xmath.CSR, assign []int, k, parallelism int) float64 {
	obs.C("cluster.silhouette").Inc()
	if k <= 1 || m.NumRows() < 2 {
		return 0
	}
	pm := pairwiseSquared(newPointSet(m), parallelism)
	defer putPairMatrix(pm)
	pm.root(parallelism)
	return silhouetteFromPairs(pm, assign, k, parallelism)
}

// pairMatrix is a triangular-packed pairwise distance matrix: only the n(n-1)/2
// cells above the diagonal are stored, halving the silhouette stage's peak
// memory versus the square form. Cell (i, j) with i < j lives at
// i*(2n-i-1)/2 + (j-i-1) — row i's upper triangle is contiguous, so filling
// and the dominant j > i read pattern both stream linearly. It is filled
// with squared distances, which k-means++ seeding reads, and rooted in place
// before silhouette scoring.
type pairMatrix struct {
	n int
	d []float64
}

// at returns the cell of points i and j in either order, 0 when i == j.
func (pm *pairMatrix) at(i, j int) float64 {
	if i > j {
		i, j = j, i
	} else if i == j {
		return 0
	}
	return pm.d[pm.rowOff(i)+(j-i-1)]
}

// rowOff returns the offset of cell (i, i+1), the start of row i's packed
// upper triangle.
func (pm *pairMatrix) rowOff(i int) int { return i * (2*pm.n - i - 1) / 2 }

// pairPool recycles triangular matrices across sweep invocations and live
// refreshes: steady-state silhouette scoring costs zero large allocations.
var pairPool = sync.Pool{New: func() any { return new(pairMatrix) }}

func getPairMatrix(n int) *pairMatrix {
	pm := pairPool.Get().(*pairMatrix)
	pm.n = n
	need := n * (n - 1) / 2
	if cap(pm.d) < need {
		pm.d = make([]float64, need)
	}
	// No zeroing: every cell is written by pairwiseSquared before any read.
	pm.d = pm.d[:need]
	return pm
}

func putPairMatrix(pm *pairMatrix) { pairPool.Put(pm) }

// pairBlock is the row-block granularity the fill fans out on: workers claim
// contiguous row tiles instead of single rows, so each writes one long
// contiguous run of the packed triangle and scheduling overhead stays off the
// O(n²) loop.
const pairBlock = 32

// forRowBlocks runs fn over the matrix's row tiles [lo, hi) on the pool.
// Each tile is handled by exactly one worker, so a tile-wise fill is
// race-free and its result independent of parallelism.
func (pm *pairMatrix) forRowBlocks(parallelism int, fn func(lo, hi int)) {
	n := pm.n
	blocks := (n + pairBlock - 1) / pairBlock
	par.For(blocks, parallelism, func(b int) {
		lo, hi := b*pairBlock, (b+1)*pairBlock
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// pairwiseSquared fills a pooled triangular matrix with all pairwise squared
// Euclidean distances. On the sparse path distances run on the packed
// kernel over each row's non-zero structure — bit-identical to the dense
// kernel (see xmath csr.go), just skipping the zero-zero dimensions that
// dominate interval feature matrices.
func pairwiseSquared(ps *pointSet, parallelism int) *pairMatrix {
	n := ps.n
	pm := getPairMatrix(n)
	pm.forRowBlocks(parallelism, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := pm.d[pm.rowOff(i):pm.rowOff(i+1)]
			if ps.sparse {
				av, ac := ps.row(i)
				for j := i + 1; j < n; j++ {
					bv, bc := ps.row(j)
					row[j-i-1] = xmath.SquaredEuclideanPacked(av, ac, bv, bc)
				}
			} else {
				for j := i + 1; j < n; j++ {
					row[j-i-1] = xmath.SquaredEuclidean(ps.rows[i], ps.rows[j])
				}
			}
		}
	})
	return pm
}

// root replaces every squared cell with its square root, in place. Euclidean
// distance is defined as math.Sqrt of the squared kernel (xmath stats.go), so
// the rooted matrix equals a Euclidean fill bit for bit.
func (pm *pairMatrix) root(parallelism int) {
	pm.forRowBlocks(parallelism, func(lo, hi int) {
		cells := pm.d[pm.rowOff(lo):pm.rowOff(hi)]
		for i, v := range cells {
			cells[i] = math.Sqrt(v)
		}
	})
}

// silhouetteFromPairs scores one clustering over a precomputed triangular
// distance matrix. Splitting this from SilhouetteCSR lets a sweep-wide caller
// (SelectSilhouetteCSR) pay the O(n²·dim) matrix once and score every k
// against it; the per-point contributions depend only on the distances and
// assign, so the score is bit-identical to a standalone SilhouetteCSR call. Each point's
// neighbors are accumulated in ascending j — the j < i cells read down the
// packed columns, the j > i cells stream row i — preserving the square-matrix
// summation order bit for bit.
func silhouetteFromPairs(pm *pairMatrix, assign []int, k, parallelism int) float64 {
	n := pm.n
	contrib := make([]float64, n)
	par.For(n, parallelism, func(i int) {
		sums := make([]float64, k)
		counts := make([]int, k)
		for j := 0; j < i; j++ {
			d := pm.d[j*(2*n-j-1)/2+(i-j-1)]
			sums[assign[j]] += d
			counts[assign[j]]++
		}
		row := pm.d[pm.rowOff(i):]
		for j := i + 1; j < n; j++ {
			sums[assign[j]] += row[j-i-1]
			counts[assign[j]]++
		}
		own := assign[i]
		if counts[own] == 0 {
			return // singleton: contributes 0
		}
		a := sums[own] / float64(counts[own])
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == own || counts[c] == 0 {
				continue
			}
			if m := sums[c] / float64(counts[c]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			return // no other non-empty cluster
		}
		if a < b {
			contrib[i] = 1 - a/b
		} else if a > b {
			contrib[i] = b/a - 1
		}
	})
	var total float64
	for _, c := range contrib {
		total += c
	}
	return total / float64(n)
}

// SelectSilhouetteCSR picks the sweep result (k >= 2) with the highest mean
// silhouette over the rows of m; if no k >= 2 result exists, or the best
// silhouette is not positive (no structure), it falls back to k = 1. This is
// the alternative selection method the paper also experimented with (§V-A).
// parallelism bounds the per-k scoring pool (0 means GOMAXPROCS). It is
// Points.SelectSilhouette on a point set of its own.
func SelectSilhouetteCSR(m *xmath.CSR, results []*Result, parallelism int) *Result {
	if len(results) == 0 {
		return nil
	}
	p, err := NewPoints(m, true)
	if err != nil {
		return results[0]
	}
	defer p.Release()
	return p.SelectSilhouette(results, parallelism)
}

// SelectSilhouette is SelectSilhouetteCSR over the prepared point set.
//
// The O(n²) triangular pairwise matrix depends only on the points, not the
// clustering, so it is shared by every k: reused from the sweep when Sweep
// filled it, else computed lazily on the first scorable k, so a kmax=1
// sweep never pays for it. Its cells are rooted once, on first use. Scores
// are bit-identical to per-k SilhouetteCSR calls.
func (p *Points) SelectSilhouette(results []*Result, parallelism int) *Result {
	if len(results) == 0 {
		return nil
	}
	n := p.ps.n
	best := results[0]
	bestScore := 0.0
	for _, r := range results {
		if r.K < 2 || n < 2 {
			continue
		}
		obs.C("cluster.silhouette").Inc()
		if !p.rooted {
			p.fill(parallelism, nil)
			p.pm.root(parallelism)
			p.rooted = true
		}
		if s := silhouetteFromPairs(p.pm, r.Assign, r.K, parallelism); s > bestScore {
			best, bestScore = r, s
		}
	}
	return best
}
