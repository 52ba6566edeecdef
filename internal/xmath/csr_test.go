package xmath

import (
	"math"
	"testing"
)

// packedVec builds a deterministic mostly-zero vector and its packed form.
func packedVec(rng *RNG, dim int, density float64) ([]float64, []float64, []int32) {
	dense := make([]float64, dim)
	var vals []float64
	var cols []int32
	for d := 0; d < dim; d++ {
		if rng.Float64() < density {
			v := rng.NormFloat64() * 3
			if v == 0 {
				continue
			}
			dense[d] = v
			vals = append(vals, v)
			cols = append(cols, int32(d))
		}
	}
	return dense, vals, cols
}

func TestPackedKernelsBitIdenticalToDense(t *testing.T) {
	rng := NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(64)
		da, av, ac := packedVec(rng, dim, 0.3)
		db, bv, bc := packedVec(rng, dim, 0.3)
		want := SquaredEuclidean(da, db)
		if got := SquaredEuclideanPacked(av, ac, bv, bc); got != want {
			t.Fatalf("trial %d: packed %v != dense %v", trial, got, want)
		}
		if got := SquaredEuclideanPackedDense(av, ac, db); got != want {
			t.Fatalf("trial %d: packed-dense %v != dense %v", trial, got, want)
		}
		if got := EuclideanPackedDense(av, ac, db); got != math.Sqrt(want) {
			t.Fatalf("trial %d: EuclideanPackedDense %v != %v", trial, got, math.Sqrt(want))
		}
	}
}

func TestPackedBoundedExactness(t *testing.T) {
	rng := NewRNG(23)
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(48)
		da, av, ac := packedVec(rng, dim, 0.4)
		db, bv, bc := packedVec(rng, dim, 0.4)
		exact := SquaredEuclidean(da, db)
		for _, limit := range []float64{0, exact / 2, exact, exact * 2, math.Inf(1)} {
			got, full := SquaredEuclideanPackedBounded(av, ac, bv, bc, limit)
			if full {
				if got != exact {
					t.Fatalf("trial %d: full scan %v != exact %v", trial, got, exact)
				}
				if exact >= limit && limit != 0 {
					t.Fatalf("trial %d: claimed full below limit but exact %v >= limit %v", trial, exact, limit)
				}
			} else if got < limit {
				t.Fatalf("trial %d: abandoned with partial %v < limit %v", trial, got, limit)
			}
			got, full = SquaredEuclideanPackedDenseBounded(av, ac, db, limit)
			if full && got != exact {
				t.Fatalf("trial %d: packed-dense full scan %v != exact %v", trial, got, exact)
			}
			if !full && got < limit {
				t.Fatalf("trial %d: packed-dense abandoned with partial %v < limit %v", trial, got, limit)
			}
		}
	}
}

func TestCSRRoundTrip(t *testing.T) {
	rng := NewRNG(5)
	rows := make([][]float64, 17)
	for i := range rows {
		rows[i], _, _ = packedVec(rng, 13, 0.25)
	}
	m := NewCSRFromDense(rows)
	if m.NumRows() != 17 || m.NumCols != 13 {
		t.Fatalf("shape = %dx%d, want 17x13", m.NumRows(), m.NumCols)
	}
	back := m.Dense()
	for i := range rows {
		for j := range rows[i] {
			if back[i][j] != rows[i][j] {
				t.Fatalf("round trip differs at (%d,%d): %v != %v", i, j, back[i][j], rows[i][j])
			}
		}
	}
	buf := make([]float64, m.NumCols)
	for i := range rows {
		m.ScatterRow(i, buf)
		for j := range rows[i] {
			if buf[j] != rows[i][j] {
				t.Fatalf("ScatterRow(%d) differs at %d", i, j)
			}
		}
		vals, cols := m.Row(i)
		for t2, c := range cols {
			if vals[t2] != rows[i][c] {
				t.Fatalf("Row(%d) val at col %d = %v, want %v", i, c, vals[t2], rows[i][c])
			}
		}
	}
	var empty CSR
	if empty.NumRows() != 0 || empty.NNZ() != 0 {
		t.Fatal("zero CSR should be an empty matrix")
	}
}
