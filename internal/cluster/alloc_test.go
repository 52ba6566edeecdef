// alloc_test.go asserts the allocation discipline of the batch clustering
// path, extending the per-interval proof in internal/stream/alloc_test.go:
// a full SweepCSR allocates only per-run state (results, centroids, the first
// sizing of the pooled scratch) — the Lloyd iterations themselves must not
// touch the allocator at all. The proof is iteration-independence: the same
// sweep capped at 2 iterations and given room for 120 must allocate the
// exact same amount, so the extra ~118 iterations per run are heap-free.
package cluster

import (
	"runtime/debug"
	"testing"
)

func TestSweepIterationsAllocateNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("full 500x200 sweeps")
	}
	if raceEnabled {
		t.Skip("race-detector shadow state allocates")
	}
	m := benchSweepMatrix()
	// The scratch and pair-matrix pools must survive the measurement: a GC
	// between runs would clear sync.Pool and bill a fresh scratch sizing to
	// whichever run triggered it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	measure := func(maxIter int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := SweepCSR(m, 8, Options{Seed: 1, Parallelism: 1, MaxIterations: maxIter}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Warm the pooled scratch to its steady-state size before comparing.
	measure(2)
	short := measure(2)
	long := measure(120)
	if long != short {
		t.Fatalf("sweep allocations grow with iteration count: %.1f allocs at MaxIterations=2 vs %.1f at 120 — Lloyd iterations must not allocate", short, long)
	}
}
