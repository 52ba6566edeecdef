package cluster

import (
	"fmt"
	"testing"

	"github.com/incprof/incprof/internal/xmath"
)

// The sweep benchmarks run the k-means sweep and silhouette scoring on
// synthetic 500-interval x 200-function matrices (a long production run's
// scale, ~8x the paper's) at several worker-pool bounds.
//
// BenchmarkSweep uses the phase-structured sparse fixture below — the shape
// real interval profiles have, and the one the packed/pruned hot path is
// built for. BenchmarkSweepDense keeps the uniform-random fully-dense matrix
// as the tracked worst case: it takes the pointSet dense fallback, has no
// cluster structure for the triangle-inequality bounds to exploit and no
// zeros for the packed kernels to skip, so it bounds the regression risk of
// the exact-pruning machinery.
// Compare parallelism=1 against parallelism=8 for the pool speedup; the
// determinism tests in cluster_test.go prove the outputs are identical.

// phaseMatrix models a profiled run with ground-truth phase structure: the
// run cycles through `phases` segments; each phase activates its own small
// set of functions (plus a handful of always-on ones), everything else stays
// zero. Roughly activePerPhase/d of each row is non-zero, matching the
// sparsity of real interval-by-function feature matrices.
func phaseMatrix(n, d, phases, activePerPhase int, seed uint64) [][]float64 {
	rng := xmath.NewRNG(seed)
	alwaysOn := 5
	means := make([][]float64, phases)
	for p := range means {
		m := make([]float64, d)
		for j := 0; j < alwaysOn; j++ {
			m[j] = 0.5 + rng.Float64()
		}
		for j := 0; j < activePerPhase; j++ {
			m[alwaysOn+(p*activePerPhase+j)%(d-alwaysOn)] = rng.Float64() * 2
		}
		means[p] = m
	}
	pts := make([][]float64, n)
	segment := n / (2 * phases) // each phase recurs twice, like real runs
	for i := range pts {
		p := (i / segment) % phases
		row := make([]float64, d)
		for j, m := range means[p] {
			if m == 0 {
				continue
			}
			v := m * (0.9 + 0.2*rng.Float64())
			row[j] = v
		}
		pts[i] = row
	}
	return pts
}

// The fixtures are packed once, outside every timed loop.
func benchSweepMatrix() *xmath.CSR {
	return csr(phaseMatrix(500, 200, 6, 25, 1))
}

func benchSweepDenseMatrix() *xmath.CSR {
	return csr(randomMatrix(500, 200, 1))
}

func BenchmarkSweep(b *testing.B) {
	m := benchSweepMatrix()
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SweepCSR(m, 8, Options{Seed: 1, Parallelism: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSweepDense(b *testing.B) {
	m := benchSweepDenseMatrix()
	for _, p := range []int{1, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SweepCSR(m, 8, Options{Seed: 1, Parallelism: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSilhouetteP(b *testing.B) {
	m := benchSweepMatrix()
	res, err := kmeansCSR(m, 4, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = SilhouetteCSR(m, res.Assign, res.K, p)
			}
		})
	}
}

// BenchmarkSelectSilhouetteP measures the whole silhouette model selection
// over a sweep — the path that used to recompute the O(n²) pairwise matrix
// once per k and now shares it across all of them.
func BenchmarkSelectSilhouetteP(b *testing.B) {
	m := benchSweepMatrix()
	results, err := SweepCSR(m, 8, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SelectSilhouetteCSR(m, results, 1)
	}
}

// BenchmarkSweepSelectSilhouette measures the sweep and the silhouette
// selection as phase detection runs them: one point set whose pairwise
// matrix seeds every run and then scores every k. It is not in the gated
// trajectory set.
func BenchmarkSweepSelectSilhouette(b *testing.B) {
	m := benchSweepMatrix()
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pts, err := NewPoints(m, true)
				if err != nil {
					b.Fatal(err)
				}
				results, err := pts.Sweep(8, Options{Seed: 1, Parallelism: p})
				if err != nil {
					b.Fatal(err)
				}
				_ = pts.SelectSilhouette(results, p)
				pts.Release()
			}
		})
	}
}
