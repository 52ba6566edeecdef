// shared_test.go holds the shared sweep-and-select path (Points with
// silhouette selection) to the two public entries it replaces: SweepCSR
// followed by SelectSilhouetteCSR must return the same results, bit for bit,
// and the same choice.
package cluster

import (
	"fmt"
	"testing"

	"github.com/incprof/incprof/internal/xmath"
)

// sweepBoth runs the separate and the shared path over m and fails t on the
// first difference.
func sweepBoth(t *testing.T, label string, m *xmath.CSR, kmax int, opts Options) {
	t.Helper()
	want, err := SweepCSR(m, kmax, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantBest := SelectSilhouetteCSR(m, want, opts.Parallelism)

	p, err := NewPoints(m, true)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	got, err := p.Sweep(kmax, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		sameResult(t, fmt.Sprintf("%s k=%d", label, i+1), want[i], got[i])
	}
	gotBest := p.SelectSilhouette(got, opts.Parallelism)
	if gotBest.K != wantBest.K {
		t.Fatalf("%s: shared path selects k=%d, separate k=%d", label, gotBest.K, wantBest.K)
	}
}

func TestSharedSweepSelectMatchesSeparate(t *testing.T) {
	fixtures := map[string]*xmath.CSR{
		"sparse": csr(phaseMatrix(150, 60, 4, 9, 3)),
		"dense":  csr(randomMatrix(90, 16, 4)),
	}
	if !newPointSet(fixtures["sparse"]).sparse || newPointSet(fixtures["dense"]).sparse {
		t.Fatal("fixtures do not cover both kernel paths")
	}
	for name, m := range fixtures {
		for _, parallelism := range []int{1, 8} {
			sweepBoth(t, fmt.Sprintf("%s p=%d", name, parallelism), m, 8, Options{Seed: 5, Parallelism: parallelism})
		}
	}
}

// fuzzMatrix decodes bytes into a small CSR matrix: n and dim from the first
// two bytes, then one byte per cell, a third of them zero. Short inputs
// leave trailing cells zero, which yields duplicate and all-identical rows.
func fuzzMatrix(data []byte) *xmath.CSR {
	n, dim := 1, 1
	if len(data) > 0 {
		n += int(data[0] % 24)
	}
	if len(data) > 1 {
		dim += int(data[1] % 8)
	}
	rows := make([][]float64, n)
	cell := 2
	for i := range rows {
		rows[i] = make([]float64, dim)
		for d := range rows[i] {
			if cell < len(data) && data[cell]%3 != 0 {
				rows[i][d] = float64(data[cell]) / 16
			}
			cell++
		}
	}
	return csr(rows)
}

func FuzzSweepSharedMatchesSeparate(f *testing.F) {
	f.Add([]byte{12, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(8), uint64(1))
	f.Add([]byte{7, 3}, uint8(7), uint64(2))
	f.Add([]byte{23, 7, 200, 17, 0, 4, 90, 91, 92, 33, 34, 35, 1, 1, 1, 2, 2, 2}, uint8(5), uint64(3))
	f.Add([]byte{0, 0}, uint8(1), uint64(4))
	f.Fuzz(func(t *testing.T, data []byte, kmax uint8, seed uint64) {
		sweepBoth(t, "fuzz", fuzzMatrix(data), 1+int(kmax%8), Options{Seed: seed, Parallelism: 1})
	})
}
