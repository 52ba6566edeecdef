package cluster

import (
	"fmt"
	"math"

	"github.com/incprof/incprof/internal/xmath"
)

// Noise is the DBSCAN label for points in no cluster.
const Noise = -1

// DBSCANCSR runs density-based clustering over the rows of m with radius
// eps and density threshold minPts (a point is a core point when at least
// minPts points, itself included, lie within eps). It returns per-point
// labels: 0..k-1 for clusters, Noise for outliers, plus the number of
// clusters found.
//
// Distances run on the shared xmath packed/dense kernel pair the k-means path
// uses (chosen by the pointSet density rule), not a private loop — both
// kernels return identical bits, so the labels match the historical dense
// implementation exactly (dbscan_test.go proves it against a naive
// reference).
//
// The paper experimented with DBSCAN and found no improvement over k-means
// for interval data (§V-A); it is retained here as the A2 ablation baseline.
func DBSCANCSR(m *xmath.CSR, eps float64, minPts int) ([]int, int, error) {
	if eps <= 0 {
		return nil, 0, fmt.Errorf("cluster: DBSCAN eps=%v must be positive", eps)
	}
	if minPts < 1 {
		return nil, 0, fmt.Errorf("cluster: DBSCAN minPts=%d must be >= 1", minPts)
	}
	ps := newPointSet(m)
	n := ps.n
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	visited := make([]bool, n)
	eps2 := eps * eps
	neighbors := func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			if ps.sq(i, j) <= eps2 {
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
			continue // noise (may be claimed as a border point later)
		}
		labels[i] = cluster
		// Expand: classic seed-queue growth.
		queue := append([]int(nil), nb...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if labels[j] == Noise {
				labels[j] = cluster // border or core, now claimed
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
	return labels, cluster, nil
}

// EstimateEpsCSR offers a simple heuristic for DBSCAN's radius on interval
// data: the p-quantile (typically 0.9) of each point's distance to its k-th
// nearest neighbor, with k = minPts-1.
func EstimateEpsCSR(m *xmath.CSR, minPts int, p float64) float64 {
	ps := newPointSet(m)
	n := ps.n
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
				dist := math.Sqrt(ps.sq(i, j))
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
		// Duplicate-heavy data: every k-th neighbor coincides. Fall
		// back to a small fraction of the data's spread so identical
		// intervals cluster together and distinct groups stay apart.
		if maxDist == 0 {
			return 1 // all points identical; any radius gives 1 cluster
		}
		eps = maxDist * 0.05
	}
	return eps
}
