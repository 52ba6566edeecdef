// prune_test.go proves the exact-pruned hot path (packed kernels, Hamerly
// bounds, bounded partial distances, pooled scratch) is bit-identical to the
// naive full-scan algorithm. naiveKMeans below is a from-scratch reference —
// dense kernels only, no bounds, no early exit, no pooling — kept deliberately
// dumb; the property tests demand that the CSR entries agree with it on every
// output field, bit for bit, across sparse and dense fixtures (the packed and
// the dense pointSet path) and worker-pool bounds. Run under -race these tests also exercise the scratch pool across
// concurrent restarts.
package cluster

import (
	"fmt"
	"math"
	"testing"

	"github.com/incprof/incprof/internal/par"
	"github.com/incprof/incprof/internal/xmath"
)

// naiveSeedPlusPlus is k-means++ seeding with the min-distance weights
// recomputed from scratch every round on the dense kernel. It must consume
// the RNG exactly as seedPlusPlus does: one Intn for the first centroid, then
// one Float64 (or Intn when all weights are zero) per remaining centroid.
func naiveSeedPlusPlus(points [][]float64, k int, rng *xmath.RNG) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := rng.Intn(len(points))
	centroids = append(centroids, append([]float64(nil), points[first]...))
	for len(centroids) < k {
		dist := make([]float64, len(points))
		var total float64
		for i, p := range points {
			min := xmath.SquaredEuclidean(p, centroids[0])
			for _, c := range centroids[1:] {
				if d := xmath.SquaredEuclidean(p, c); d < min {
					min = d
				}
			}
			dist[i] = min
			total += min
		}
		var idx int
		if total == 0 {
			idx = rng.Intn(len(points))
		} else {
			target := rng.Float64() * total
			var acc float64
			idx = len(points) - 1
			for i, d := range dist {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
		}
		centroids = append(centroids, append([]float64(nil), points[idx]...))
	}
	return centroids
}

// nearest is the naive assignment: scan every centroid with a strict <.
func nearest(centroids [][]float64, p []float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cent := range centroids {
		if d := xmath.SquaredEuclidean(p, cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// naiveLloyd is Lloyd iteration with a full k-way dense scan for every point
// on every pass — the reference the pruned assignment must reproduce exactly,
// including iteration counts and tie handling (nearest's strict <).
func naiveLloyd(points [][]float64, centroids [][]float64, maxIter int) *Result {
	n, dim, k := len(points), len(points[0]), len(centroids)
	assign := make([]int, n)
	sizes := make([]int, k)
	prev := make([][]float64, k)
	for c := range prev {
		prev[c] = make([]float64, dim)
	}
	assignAll := func() bool {
		changed := false
		for i, p := range points {
			if best := nearest(centroids, p); best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		return changed
	}
	iter := 0
	for ; iter < maxIter; iter++ {
		changed := assignAll()
		if !changed && iter > 0 {
			break
		}
		for c := range centroids {
			copy(prev[c], centroids[c])
			for d := range centroids[c] {
				centroids[c][d] = 0
			}
			sizes[c] = 0
		}
		for i, p := range points {
			c := assign[i]
			sizes[c]++
			for d, v := range p {
				centroids[c][d] += v
			}
		}
		for c := range centroids {
			if sizes[c] == 0 {
				continue
			}
			inv := 1 / float64(sizes[c])
			for d := range centroids[c] {
				centroids[c][d] *= inv
			}
		}
		var taken map[int]bool
		for c := range centroids {
			if sizes[c] != 0 {
				continue
			}
			far, dist := -1, -1.0
			for i, p := range points {
				if taken[i] {
					continue
				}
				d := xmath.SquaredEuclidean(p, centroids[assign[i]])
				if d > dist {
					far, dist = i, d
				}
			}
			if far < 0 {
				copy(centroids[c], prev[c])
				continue
			}
			copy(centroids[c], points[far])
			if taken == nil {
				taken = make(map[int]bool)
			}
			taken[far] = true
		}
	}
	assignAll()
	var wcss float64
	for c := range sizes {
		sizes[c] = 0
	}
	for i, p := range points {
		c := assign[i]
		sizes[c]++
		wcss += xmath.SquaredEuclidean(p, centroids[c])
	}
	return &Result{K: k, Assign: assign, Centroids: centroids, WCSS: wcss, Iterations: iter, Sizes: sizes}
}

// naiveKMeans replicates kmeansValidated's restart fan-out (same seed
// derivation, same strict-< reduction) over the naive seeding and Lloyd.
func naiveKMeans(points [][]float64, k int, opts Options) *Result {
	opts = opts.withDefaults()
	seedRNG := xmath.NewRNG(opts.Seed)
	seeds := make([]uint64, opts.Restarts)
	for r := range seeds {
		seeds[r] = seedRNG.Uint64()
	}
	results := make([]*Result, opts.Restarts)
	par.For(opts.Restarts, opts.Parallelism, func(r int) {
		rng := xmath.NewRNG(seeds[r])
		results[r] = naiveLloyd(points, naiveSeedPlusPlus(points, k, rng), opts.MaxIterations)
	})
	best := results[0]
	for _, res := range results[1:] {
		if res.WCSS < best.WCSS {
			best = res
		}
	}
	return best
}

// pruneFixtures is the shared fixture matrix: phase-structured sparse (the
// real workload shape, where pruning and sparse kernels actually fire), dense
// uniform (no structure — the bounds' worst case), tight blobs (bounds prune
// almost everything), a tiny high-k case (empty clusters, reseating), and
// the edges of the first Lloyd pass seeding carries: duplicate rows (tied
// distances, repeated seeds) and all-identical rows (every k-means++ weight
// zero, the total == 0 branch).
func pruneFixtures() map[string][][]float64 {
	blobPts, _ := blobs([][]float64{{0, 0, 0}, {8, 0, 4}, {0, 9, 1}}, 25, 0.4, 5)
	distinct := phaseMatrix(6, 12, 2, 3, 13)
	var dups [][]float64
	for r := 0; r < 3; r++ {
		dups = append(dups, distinct...)
	}
	same := make([][]float64, 10)
	for i := range same {
		same[i] = []float64{0.5, 0, 2, 1}
	}
	return map[string][][]float64{
		"sparse-phased": phaseMatrix(120, 60, 4, 9, 7),
		"dense-uniform": randomMatrix(80, 24, 3),
		"blobs":         blobPts,
		"tiny":          randomMatrix(9, 4, 11),
		"duplicates":    dups,
		"identical":     same,
	}
}

// fixtureKs is the k set the single-k oracle test runs on pts: a spread of
// small k plus k = n on the fixtures small enough for the naive oracle.
func fixtureKs(pts [][]float64) []int {
	var ks []int
	for _, k := range []int{1, 2, 4, 8} {
		if k <= len(pts) {
			ks = append(ks, k)
		}
	}
	if n := len(pts); n > 8 && n <= 20 {
		ks = append(ks, n)
	}
	return ks
}

func TestPrunedKMeansMatchesNaiveBitForBit(t *testing.T) {
	for name, pts := range pruneFixtures() {
		for _, k := range fixtureKs(pts) {
			for _, parallelism := range []int{1, 8} {
				opts := Options{Seed: 42, Parallelism: parallelism}
				want := naiveKMeans(pts, k, opts)
				got, err := kmeansCSR(csr(pts), k, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("%s k=%d p=%d", name, k, parallelism), want, got)
			}
		}
	}
}

// The sweep is held to the oracle on both seeding sources: measured on the
// kernels (elbow) and read from the shared pairwise matrix (silhouette).
func TestPrunedSweepMatchesNaiveBitForBit(t *testing.T) {
	for name, pts := range pruneFixtures() {
		for _, shared := range []bool{false, true} {
			for _, parallelism := range []int{1, 8} {
				p, err := NewPoints(csr(pts), shared)
				if err != nil {
					t.Fatal(err)
				}
				results, err := p.Sweep(8, Options{Seed: 1, Parallelism: parallelism})
				if err != nil {
					t.Fatal(err)
				}
				if shared != (p.pm != nil) {
					t.Fatalf("%s shared=%v: pairwise matrix filled = %v", name, shared, p.pm != nil)
				}
				p.Release()
				for i, r := range results {
					k := i + 1
					opts := Options{Seed: 1 + uint64(k)*0x9e3779b97f4a7c15, Parallelism: parallelism}
					sameResult(t, fmt.Sprintf("%s sweep k=%d p=%d shared=%v", name, k, parallelism, shared),
						naiveKMeans(pts, k, opts), r)
				}
			}
		}
	}
}

// At k = 1 every restart converges to the one mean with the same WCSS and
// Iterations, so restart 0 wins the tie and the rest are wasted work:
// kmeansValidated runs one. Each naive restart must equal restart 0 bit for
// bit, and the clusterer at Restarts 4 and 1 must both equal the naive
// four-restart reduction.
func TestKMeansOneRestartAtKOne(t *testing.T) {
	fx := pruneFixtures()
	for _, name := range []string{"sparse-phased", "dense-uniform", "duplicates"} {
		pts := fx[name]
		for _, seed := range []uint64{1, 42, 0x9e3779b97f4a7c15} {
			label := fmt.Sprintf("%s seed=%d", name, seed)
			seedRNG := xmath.NewRNG(seed)
			var first *Result
			for r := 0; r < 4; r++ {
				rng := xmath.NewRNG(seedRNG.Uint64())
				res := naiveLloyd(pts, naiveSeedPlusPlus(pts, 1, rng), 100)
				if first == nil {
					first = res
					continue
				}
				sameResult(t, fmt.Sprintf("%s restart %d vs 0", label, r), first, res)
			}
			want := naiveKMeans(pts, 1, Options{Seed: seed, Restarts: 4})
			for _, restarts := range []int{4, 1} {
				got, err := kmeansCSR(csr(pts), 1, Options{Seed: seed, Restarts: restarts})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("%s restarts=%d", label, restarts), want, got)
			}
		}
	}
}

// naiveSilhouette is the mean silhouette over a square dense-kernel distance
// scan, each point's neighbors summed in ascending index order.
func naiveSilhouette(points [][]float64, assign []int, k int) float64 {
	n := len(points)
	if k <= 1 || n < 2 {
		return 0
	}
	var total float64
	for i := range points {
		sums := make([]float64, k)
		counts := make([]int, k)
		for j := range points {
			if j != i {
				sums[assign[j]] += xmath.Euclidean(points[i], points[j])
				counts[assign[j]]++
			}
		}
		own := assign[i]
		if counts[own] == 0 {
			continue
		}
		a := sums[own] / float64(counts[own])
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c != own && counts[c] != 0 && sums[c]/float64(counts[c]) < b {
				b = sums[c] / float64(counts[c])
			}
		}
		switch {
		case math.IsInf(b, 1):
		case a < b:
			total += 1 - a/b
		case a > b:
			total += b/a - 1
		}
	}
	return total / float64(n)
}

// TestSilhouetteMatchesNaiveBitForBit holds SilhouetteCSR and
// SelectSilhouetteCSR to the naive reference on every fixture — packed
// kernels on the sparse one, the dense fallback on the others — at both
// worker-pool bounds.
func TestSilhouetteMatchesNaiveBitForBit(t *testing.T) {
	for name, pts := range pruneFixtures() {
		m := csr(pts)
		results, err := SweepCSR(m, 8, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for _, parallelism := range []int{1, 8} {
			want, bestScore := results[0], 0.0
			for _, r := range results {
				s := naiveSilhouette(pts, r.Assign, r.K)
				if got := SilhouetteCSR(m, r.Assign, r.K, parallelism); got != s {
					t.Fatalf("%s k=%d p=%d: SilhouetteCSR = %v, naive = %v", name, r.K, parallelism, got, s)
				}
				if r.K >= 2 && s > bestScore {
					want, bestScore = r, s
				}
			}
			if got := SelectSilhouetteCSR(m, results, parallelism); got != want {
				t.Fatalf("%s p=%d: selected k=%d, naive k=%d", name, parallelism, got.K, want.K)
			}
		}
	}
}

// TestFixturesCoverBothKernelPaths pins what the bit-identity tests above
// rely on: pruneFixtures has matrices on both sides of the pointSet density
// rule, so the packed kernels and the dense fallback are both held to the
// naive references.
func TestFixturesCoverBothKernelPaths(t *testing.T) {
	fx := pruneFixtures()
	if !newPointSet(csr(fx["sparse-phased"])).sparse {
		t.Fatal("sparse-phased fixture takes the dense path")
	}
	if newPointSet(csr(fx["dense-uniform"])).sparse {
		t.Fatal("dense-uniform fixture takes the packed path")
	}
}
