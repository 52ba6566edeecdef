// clusterer.go holds the incremental clustering state of the engine: a
// mini-batch k-means model nudged by every arriving interval, which in turn
// warm-starts the periodic full cluster.SweepCSR refreshes.
package stream

import (
	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/xmath"
)

// miniBatch is a Sculley-style mini-batch (batch size 1) k-means model: each
// arriving point joins its nearest centroid, which moves toward it with a
// per-centroid learning rate 1/count. Between full refreshes it tracks the
// drift of the run cheaply — O(k·dims) per interval — and its centroids seed
// the warm-start candidate of the next refresh. It never replaces the full
// sweep: refreshes re-cluster all rows and reseed it.
type miniBatch struct {
	centroids [][]float64
	counts    []int64
}

// newMiniBatch clones a refresh's selected model into a mini-batch state;
// sizes (the per-cluster member counts) seed the learning-rate counters so a
// large established cluster is not yanked around by its next few members.
func newMiniBatch(centroids [][]float64, sizes []int) *miniBatch {
	m := &miniBatch{
		centroids: cluster.CloneCentroids(centroids),
		counts:    make([]int64, len(centroids)),
	}
	for i := range sizes {
		if i < len(m.counts) {
			m.counts[i] = int64(sizes[i])
		}
	}
	return m
}

// updatePacked assigns a packed row (vals at sorted column indices cols,
// logical length dim) to its nearest centroid, drifts that centroid toward
// it, and returns the assignment — the engine's zero-densify per-interval
// path. The feature space may have grown since the centroids were computed:
// missing trailing centroid dimensions read as zero in the packed padded
// kernel and the centroid is padded on first touch. The drift walks every
// logical dimension, since a zero cell still pulls the centroid coordinate
// toward zero.
func (m *miniBatch) updatePacked(vals []float64, cols []int32, dim int) int {
	best, bestD := 0, xmath.SquaredEuclideanPackedPadded(vals, cols, dim, m.centroids[0])
	for c := 1; c < len(m.centroids); c++ {
		if d := xmath.SquaredEuclideanPackedPadded(vals, cols, dim, m.centroids[c]); d < bestD {
			best, bestD = c, d
		}
	}
	m.counts[best]++
	eta := 1 / float64(m.counts[best])
	c := m.centroids[best]
	for len(c) < dim {
		c = append(c, 0)
	}
	t := 0
	for d := 0; d < dim; d++ {
		var v float64
		if t < len(cols) && int(cols[t]) == d {
			v = vals[t]
			t++
		}
		c[d] += eta * (v - c[d])
	}
	m.centroids[best] = c
	return best
}
