// dbscan_test.go proves DBSCAN's move onto the shared pointSet/xmath kernels
// changed no output bit: naiveDBSCAN and naiveEstimateEps below are the
// historical implementations — private dense Euclidean loops, no pointSet —
// kept verbatim as the reference, and the property tests demand that
// DBSCANCSR/EstimateEpsCSR agree with them exactly on every pruneFixtures
// matrix, sparse (packed kernels) and dense (dense fallback) alike.
package cluster

import (
	"testing"

	"github.com/incprof/incprof/internal/xmath"
)

// naiveDBSCAN is the pre-CSR DBSCAN body: the same seed-queue expansion over
// a private dense-kernel neighbor scan.
func naiveDBSCAN(points [][]float64, eps float64, minPts int) ([]int, int) {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	visited := make([]bool, n)
	eps2 := eps * eps
	neighbors := func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			if xmath.SquaredEuclidean(points[i], points[j]) <= eps2 {
				out = append(out, j)
			}
		}
		return out
	}
	cluster := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		nb := neighbors(i)
		if len(nb) < minPts {
			continue
		}
		labels[i] = cluster
		queue := append([]int(nil), nb...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if labels[j] == Noise {
				labels[j] = cluster
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			nbj := neighbors(j)
			if len(nbj) >= minPts {
				queue = append(queue, nbj...)
			}
		}
		cluster++
	}
	return labels, cluster
}

// naiveEstimateEps is the pre-CSR EstimateEps body.
func naiveEstimateEps(points [][]float64, minPts int, p float64) float64 {
	n := len(points)
	if n < 2 || minPts < 2 {
		return 1
	}
	k := minPts - 1
	if k > n-1 {
		k = n - 1
	}
	kth := make([]float64, 0, n)
	d := make([]float64, 0, n-1)
	var maxDist float64
	for i := 0; i < n; i++ {
		d = d[:0]
		for j := 0; j < n; j++ {
			if i != j {
				dist := xmath.Euclidean(points[i], points[j])
				d = append(d, dist)
				if dist > maxDist {
					maxDist = dist
				}
			}
		}
		q := 0.0
		if len(d) > 1 {
			q = float64(k-1) / float64(len(d)-1)
		}
		kth = append(kth, xmath.Percentile(d, q))
	}
	eps := xmath.Percentile(kth, p)
	if eps <= 0 {
		if maxDist == 0 {
			return 1
		}
		eps = maxDist * 0.05
	}
	return eps
}

func TestDBSCANMatchesNaiveBitForBit(t *testing.T) {
	for name, pts := range pruneFixtures() {
		for _, minPts := range []int{2, 4} {
			wantEps := naiveEstimateEps(pts, minPts, 0.9)
			m := csr(pts)
			eps := EstimateEpsCSR(m, minPts, 0.9)
			if eps != wantEps {
				t.Fatalf("%s minPts=%d: EstimateEpsCSR = %v, naive = %v", name, minPts, eps, wantEps)
			}

			wantLabels, wantK := naiveDBSCAN(pts, eps, minPts)
			labels, k, err := DBSCANCSR(m, eps, minPts)
			if err != nil {
				t.Fatal(err)
			}
			if k != wantK {
				t.Fatalf("%s minPts=%d: k = %d, naive = %d", name, minPts, k, wantK)
			}
			for i := range wantLabels {
				if labels[i] != wantLabels[i] {
					t.Fatalf("%s minPts=%d: labels[%d] = %d, naive = %d", name, minPts, i, labels[i], wantLabels[i])
				}
			}
		}
	}
}
