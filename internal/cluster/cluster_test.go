package cluster

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/incprof/incprof/internal/xmath"
)

// csr packs a dense test fixture into the CSR form every entry takes.
func csr(rows [][]float64) *xmath.CSR { return xmath.NewCSRFromDense(rows) }

// blobs generates n points around each of the given centers with the given
// spread.
func blobs(centers [][]float64, n int, spread float64, seed uint64) ([][]float64, []int) {
	rng := xmath.NewRNG(seed)
	var pts [][]float64
	var truth []int
	for ci, c := range centers {
		for i := 0; i < n; i++ {
			p := make([]float64, len(c))
			for d := range p {
				p[d] = c[d] + rng.NormFloat64()*spread
			}
			pts = append(pts, p)
			truth = append(truth, ci)
		}
	}
	return pts, truth
}

// agreement returns the fraction of point pairs on which two labelings agree
// about co-membership (Rand index) — label-permutation invariant.
func agreement(a, b []int) float64 {
	n := len(a)
	var same, total float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total++
			if (a[i] == a[j]) == (b[i] == b[j]) {
				same++
			}
		}
	}
	return same / total
}

func TestKMeansRecoversWellSeparatedBlobs(t *testing.T) {
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	pts, truth := blobs(centers, 30, 0.5, 1)
	res, err := kmeansCSR(csr(pts), 3, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if got := agreement(res.Assign, truth); got < 0.99 {
		t.Fatalf("Rand agreement with ground truth = %v, want ~1", got)
	}
	for _, size := range res.Sizes {
		if size != 30 {
			t.Fatalf("cluster sizes = %v, want all 30", res.Sizes)
		}
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	pts, _ := blobs([][]float64{{0, 0}, {5, 5}}, 20, 1, 2)
	a, err := kmeansCSR(csr(pts), 2, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := kmeansCSR(csr(pts), 2, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed, different clustering")
		}
	}
	if a.WCSS != b.WCSS {
		t.Fatal("same seed, different WCSS")
	}
}

func TestKMeansK1(t *testing.T) {
	pts := [][]float64{{0}, {2}, {4}}
	res, err := kmeansCSR(csr(pts), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Centroids[0][0] != 2 {
		t.Fatalf("k=1 centroid = %v, want mean 2", res.Centroids[0])
	}
	if res.WCSS != 8 {
		t.Fatalf("WCSS = %v, want 8", res.WCSS)
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	pts := [][]float64{{0}, {5}, {9}}
	res, err := kmeansCSR(csr(pts), 3, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.WCSS != 0 {
		t.Fatalf("k=n WCSS = %v, want 0", res.WCSS)
	}
	seen := map[int]bool{}
	for _, a := range res.Assign {
		seen[a] = true
	}
	if len(seen) != 3 {
		t.Fatalf("k=n should give singletons, got assigns %v", res.Assign)
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	res, err := kmeansCSR(csr(pts), 2, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.WCSS != 0 {
		t.Fatalf("identical points WCSS = %v", res.WCSS)
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := kmeansCSR(nil, 1, Options{}); err == nil {
		t.Fatal("accepted nil matrix")
	}
	if _, err := kmeansCSR(csr(nil), 1, Options{}); err == nil {
		t.Fatal("accepted empty input")
	}
	if _, err := kmeansCSR(csr([][]float64{{1}}), 0, Options{}); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := kmeansCSR(csr([][]float64{{1}}), 2, Options{}); err == nil {
		t.Fatal("accepted k>n")
	}
}

func TestSingletonCentroidIsItsPoint(t *testing.T) {
	pts := [][]float64{{0}, {0.1}, {10}}
	res, err := kmeansCSR(csr(pts), 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != res.Assign[1] || res.Assign[0] == res.Assign[2] {
		t.Fatalf("Assign = %v, want {0, 0.1} together and 10 alone", res.Assign)
	}
	d := xmath.Euclidean(pts[2], res.Centroids[res.Assign[2]])
	if d > 1e-9 {
		t.Fatalf("singleton's distance to own centroid = %v, want 0", d)
	}
}

func TestSweepProducesDecreasingWCSS(t *testing.T) {
	pts, _ := blobs([][]float64{{0, 0}, {8, 8}, {16, 0}}, 20, 1, 9)
	results, err := SweepCSR(csr(pts), 8, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("sweep returned %d results", len(results))
	}
	for k := 1; k < len(results); k++ {
		// Allow tiny non-monotonicity from restarts, but the trend
		// must be non-increasing.
		if results[k].WCSS > results[k-1].WCSS*1.05 {
			t.Fatalf("WCSS increased sharply at k=%d: %v -> %v", k+1, results[k-1].WCSS, results[k].WCSS)
		}
	}
}

func TestSweepClampsKmax(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}}
	results, err := SweepCSR(csr(pts), 8, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("kmax not clamped to n: %d results", len(results))
	}
}

func TestElbowKOnCleanKnee(t *testing.T) {
	// WCSS drops sharply until k=3, then flattens: elbow at 3.
	wcss := []float64{1000, 400, 80, 70, 62, 58, 55, 53}
	if got := ElbowK(wcss); got != 3 {
		t.Fatalf("ElbowK = %d, want 3", got)
	}
}

func TestElbowKDegenerate(t *testing.T) {
	if got := ElbowK(nil); got != 0 {
		t.Fatalf("ElbowK(nil) = %d", got)
	}
	if got := ElbowK([]float64{5}); got != 1 {
		t.Fatalf("ElbowK(single) = %d", got)
	}
	if got := ElbowK([]float64{5, 5, 5, 5}); got != 1 {
		t.Fatalf("ElbowK(flat) = %d, want 1 (no structure)", got)
	}
	if got := ElbowK([]float64{1, 2, 3}); got != 1 {
		t.Fatalf("ElbowK(increasing) = %d, want 1", got)
	}
}

func TestSelectElbowFindsTrueK(t *testing.T) {
	pts, truth := blobs([][]float64{{0, 0}, {12, 0}, {0, 12}, {12, 12}}, 25, 0.6, 21)
	results, err := SweepCSR(csr(pts), 8, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	best := SelectElbow(results)
	if best.K != 4 {
		wcss := make([]float64, len(results))
		for i, r := range results {
			wcss[i] = r.WCSS
		}
		t.Fatalf("elbow picked k=%d, want 4; wcss=%v", best.K, wcss)
	}
	if got := agreement(best.Assign, truth); got < 0.98 {
		t.Fatalf("agreement = %v", got)
	}
}

func TestSilhouetteHighForSeparatedLowForMixed(t *testing.T) {
	pts, truth := blobs([][]float64{{0, 0}, {20, 20}}, 25, 0.5, 31)
	good := SilhouetteCSR(csr(pts), truth, 2, 0)
	if good < 0.9 {
		t.Fatalf("silhouette of well-separated blobs = %v, want > 0.9", good)
	}
	// Random labeling of the same points scores much worse.
	rng := xmath.NewRNG(7)
	random := make([]int, len(pts))
	for i := range random {
		random[i] = rng.Intn(2)
	}
	bad := SilhouetteCSR(csr(pts), random, 2, 0)
	if bad > good/2 {
		t.Fatalf("random labeling silhouette %v not clearly worse than %v", bad, good)
	}
}

func TestSilhouetteSingleClusterIsZero(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}}
	if got := SilhouetteCSR(csr(pts), []int{0, 0, 0}, 1, 0); got != 0 {
		t.Fatalf("silhouette(k=1) = %v", got)
	}
}

func TestSelectSilhouetteFindsTrueK(t *testing.T) {
	pts, _ := blobs([][]float64{{0, 0}, {15, 0}, {0, 15}}, 20, 0.5, 41)
	results, err := SweepCSR(csr(pts), 6, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	best := SelectSilhouetteCSR(csr(pts), results, 0)
	if best.K != 3 {
		t.Fatalf("silhouette picked k=%d, want 3", best.K)
	}
}

func TestDBSCANSeparatesBlobsAndNoise(t *testing.T) {
	pts, truth := blobs([][]float64{{0, 0}, {20, 20}}, 30, 0.5, 51)
	// Add two far-away noise points.
	pts = append(pts, []float64{100, -100}, []float64{-100, 100})
	labels, k, err := DBSCANCSR(csr(pts), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("DBSCAN found %d clusters, want 2", k)
	}
	if labels[60] != Noise || labels[61] != Noise {
		t.Fatalf("outliers not labeled noise: %v %v", labels[60], labels[61])
	}
	if got := agreement(labels[:60], truth); got < 0.99 {
		t.Fatalf("agreement = %v", got)
	}
}

func TestDBSCANErrors(t *testing.T) {
	if _, _, err := DBSCANCSR(csr([][]float64{{0}}), 0, 2); err == nil {
		t.Fatal("accepted eps=0")
	}
	if _, _, err := DBSCANCSR(csr([][]float64{{0}}), 1, 0); err == nil {
		t.Fatal("accepted minPts=0")
	}
}

func TestDBSCANAllNoiseWhenSparse(t *testing.T) {
	pts := [][]float64{{0}, {100}, {200}, {300}}
	labels, k, err := DBSCANCSR(csr(pts), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k != 0 {
		t.Fatalf("found %d clusters among isolated points", k)
	}
	for _, l := range labels {
		if l != Noise {
			t.Fatalf("labels = %v", labels)
		}
	}
}

func TestEstimateEpsPositive(t *testing.T) {
	pts, _ := blobs([][]float64{{0, 0}}, 30, 1, 61)
	eps := EstimateEpsCSR(csr(pts), 4, 0.9)
	if eps <= 0 || math.IsNaN(eps) {
		t.Fatalf("EstimateEpsCSR = %v", eps)
	}
}

// Property: every point is assigned to its nearest centroid (Lloyd fixed
// point), so no reassignment can lower WCSS.
func TestPropertyAssignmentsAreNearest(t *testing.T) {
	f := func(seed uint64) bool {
		pts, _ := blobs([][]float64{{0, 0}, {6, 6}, {12, 0}}, 15, 1.2, seed)
		res, err := kmeansCSR(csr(pts), 3, Options{Seed: seed})
		if err != nil {
			return false
		}
		for i, p := range pts {
			if nearest(res.Centroids, p) != res.Assign[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: WCSS from the result equals recomputing it from assignments.
func TestPropertyWCSSConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		pts, _ := blobs([][]float64{{0}, {10}}, 10, 1, seed)
		res, err := kmeansCSR(csr(pts), 2, Options{Seed: seed})
		if err != nil {
			return false
		}
		var w float64
		for i, p := range pts {
			w += xmath.SquaredEuclidean(p, res.Centroids[res.Assign[i]])
		}
		return math.Abs(w-res.WCSS) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: DBSCAN labeling is symmetric in its cluster structure — every
// labeled cluster has at least one core point (>= minPts neighbors).
func TestPropertyDBSCANClustersHaveCores(t *testing.T) {
	f := func(seed uint64) bool {
		pts, _ := blobs([][]float64{{0, 0}, {30, 30}}, 12, 1, seed)
		labels, k, err := DBSCANCSR(csr(pts), 4, 3)
		if err != nil {
			return false
		}
		for c := 0; c < k; c++ {
			hasCore := false
			for i := range pts {
				if labels[i] != c {
					continue
				}
				n := 0
				for j := range pts {
					if xmath.Euclidean(pts[i], pts[j]) <= 4 {
						n++
					}
				}
				if n >= 3 {
					hasCore = true
					break
				}
			}
			if !hasCore {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKMeansSweep60x30(b *testing.B) {
	// 60 intervals x 30 function dimensions: the paper's typical scale.
	rng := xmath.NewRNG(1)
	pts := make([][]float64, 60)
	for i := range pts {
		row := make([]float64, 30)
		for d := range row {
			row[d] = rng.Float64()
		}
		pts[i] = row
	}
	m := csr(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepCSR(m, 8, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSilhouette60Points(b *testing.B) {
	pts, truth := blobs([][]float64{{0, 0}, {10, 10}}, 30, 1, 1)
	m := csr(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SilhouetteCSR(m, truth, 2, 0)
	}
}

// randomMatrix builds an n x d matrix of uniform values, the synthetic
// interval-by-function shape the parallel-path tests and benchmarks share.
func randomMatrix(n, d int, seed uint64) [][]float64 {
	rng := xmath.NewRNG(seed)
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		pts[i] = row
	}
	return pts
}

// sameResult reports whether two k-means results are identical bit for bit.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.K != b.K || a.WCSS != b.WCSS || a.Iterations != b.Iterations {
		t.Fatalf("%s: K/WCSS/Iterations differ: %d/%v/%d vs %d/%v/%d",
			label, a.K, a.WCSS, a.Iterations, b.K, b.WCSS, b.Iterations)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("%s: Assign[%d] = %d vs %d", label, i, a.Assign[i], b.Assign[i])
		}
	}
	for c := range a.Centroids {
		for d := range a.Centroids[c] {
			if a.Centroids[c][d] != b.Centroids[c][d] {
				t.Fatalf("%s: Centroids[%d][%d] = %v vs %v",
					label, c, d, a.Centroids[c][d], b.Centroids[c][d])
			}
		}
	}
	for c := range a.Sizes {
		if a.Sizes[c] != b.Sizes[c] {
			t.Fatalf("%s: Sizes[%d] = %d vs %d", label, c, a.Sizes[c], b.Sizes[c])
		}
	}
}

func TestKMeansParallelismInvariant(t *testing.T) {
	pts := randomMatrix(80, 12, 3)
	serial, err := kmeansCSR(csr(pts), 4, Options{Seed: 9, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 8} {
		par, err := kmeansCSR(csr(pts), 4, Options{Seed: 9, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("parallelism %d", p), serial, par)
	}
}

func TestSweepParallelismInvariant(t *testing.T) {
	pts := randomMatrix(60, 10, 5)
	serial, err := SweepCSR(csr(pts), 8, Options{Seed: 21, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SweepCSR(csr(pts), 8, Options{Seed: 21, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		sameResult(t, fmt.Sprintf("k=%d", i+1), serial[i], parallel[i])
	}
}

func TestSilhouetteParallelismInvariant(t *testing.T) {
	pts, truth := blobs([][]float64{{0, 0}, {6, 6}, {12, 0}}, 25, 1.0, 71)
	serial := SilhouetteCSR(csr(pts), truth, 3, 1)
	for _, p := range []int{2, 8} {
		if got := SilhouetteCSR(csr(pts), truth, 3, p); got != serial {
			t.Fatalf("parallelism %d silhouette %v != serial %v", p, got, serial)
		}
	}
	if got := SilhouetteCSR(csr(pts), truth, 3, 0); got != serial {
		t.Fatalf("default-pool silhouette %v != serial %v", got, serial)
	}
}

// lloydFrom runs Lloyd from arbitrary starting centroids, filling the
// nearest-seed state k-means++ seeding would leave in the scratch by a plain
// scan, so the reseat tests can place centroids where seeding never would.
func lloydFrom(ps *pointSet, centroids [][]float64, maxIter int) *Result {
	sc := &lloydScratch{near: make([]int, ps.n), dist: make([]float64, ps.n), second: make([]float64, ps.n)}
	for i := 0; i < ps.n; i++ {
		sc.dist[i], sc.second[i] = math.Inf(1), math.Inf(1)
		for c, cent := range centroids {
			switch d := ps.sqToDense(i, cent); {
			case d < sc.dist[i]:
				sc.near[i], sc.dist[i], sc.second[i] = c, d, sc.dist[i]
			case d < sc.second[i]:
				sc.second[i] = d
			}
		}
	}
	return lloydScratched(ps, centroids, maxIter, sc)
}

// TestLloydReseatsEmptyClusterAgainstNormalizedCentroids forces an empty
// cluster whose index precedes the populated one. The reseat must measure
// distances against the populated cluster's *mean*, not its in-progress
// coordinate sum: with points {0},{1},{10} all assigned to c1 (sum 11,
// mean 3.67), the farthest point from the mean is {10}; the old bug
// measured against the sum and grabbed {0} instead.
func TestLloydReseatsEmptyClusterAgainstNormalizedCentroids(t *testing.T) {
	pts := [][]float64{{0}, {1}, {10}}
	centroids := [][]float64{{100}, {0.5}}
	res := lloydFrom(newPointSet(csr(pts)), centroids, 1)
	if res.Centroids[0][0] != 10 {
		t.Fatalf("empty cluster reseated on %v, want the true farthest point {10}", res.Centroids[0])
	}
}

// Two empty clusters in the same iteration must claim distinct points.
func TestLloydReseatsMultipleEmptyClustersDistinctly(t *testing.T) {
	pts := [][]float64{{0}, {1}, {10}}
	centroids := [][]float64{{100}, {200}, {0.5}}
	res := lloydFrom(newPointSet(csr(pts)), centroids, 1)
	if res.Centroids[0][0] == res.Centroids[1][0] {
		t.Fatalf("two empty clusters reseated on the same point: %v", res.Centroids)
	}
}

func TestElbowKChordIgnoresAboveChordBump(t *testing.T) {
	// The interior point (k=2, wcss 9.5) lies ABOVE the chord from
	// (1,10) to (3,1) — a convexity bump, not a knee. The old
	// absolute-distance criterion picked it; the signed criterion must
	// fall back to 1.
	if got := ElbowKChord([]float64{10, 9.5, 1}); got != 1 {
		t.Fatalf("ElbowKChord(convex bump) = %d, want fallback 1", got)
	}
	// A genuine knee below the chord is still found.
	if got := ElbowKChord([]float64{10, 2, 1}); got != 2 {
		t.Fatalf("ElbowKChord(knee) = %d, want 2", got)
	}
}
