// alloc_test.go asserts the allocation discipline of the per-interval live
// path: between refreshes, each arriving interval costs one SparseRow into
// the engine's reused index/value buffers plus one packed mini-batch update —
// and in steady state (feature space no longer growing, centroids already
// padded) that pair must not allocate at all. The obs layer holds the same
// bar for its disabled hot-path calls; together they keep the per-interval
// cost O(k·dims) work with zero allocator churn.
package stream

import (
	"testing"
	"time"

	"github.com/incprof/incprof/internal/interval"
)

func TestLivePackedRowUpdatePathAllocatesNothing(t *testing.T) {
	b := interval.NewMatrixBuilder(interval.FeatureOptions{})
	for i := 0; i < 8; i++ {
		b.Add(&interval.Profile{
			Index: i,
			Self: map[string]time.Duration{
				"init":  time.Duration(10+i) * time.Millisecond,
				"solve": time.Duration(20+i) * time.Millisecond,
				"io":    time.Duration(5) * time.Millisecond,
			},
		})
	}
	mb := newMiniBatch([][]float64{{0.01, 0.005, 0.02}, {0.015, 0.004, 0.025}}, []int{4, 4})
	var idxBuf []int32
	var valBuf []float64
	// Warm the buffers and the mini-batch centroid padding once.
	idxBuf, valBuf = b.SparseRow(0, idxBuf, valBuf)
	mb.updatePacked(valBuf, idxBuf, b.Dims())
	row := 0
	if n := testing.AllocsPerRun(200, func() {
		idxBuf, valBuf = b.SparseRow(row, idxBuf, valBuf)
		mb.updatePacked(valBuf, idxBuf, b.Dims())
		row = (row + 1) % b.NumRows()
	}); n != 0 {
		t.Fatalf("steady-state packed live row path allocates %.1f per interval, want 0", n)
	}
}
