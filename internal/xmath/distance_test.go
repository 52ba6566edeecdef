package xmath

import (
	"math"
	"testing"
)

// sparseVec builds a vector with the given density, mixing positive, negative
// and exactly-zero entries.
func sparseVec(rng *RNG, n int, density float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Float64() < density {
			v[i] = rng.NormFloat64() * 10
		}
	}
	return v
}

// TestSquaredEuclideanBoundedExact pins the early-exit contract: a completed
// scan returns the exact dense distance; an abandoned scan returns a partial
// sum that is >= limit AND <= the true distance (monotone non-negative
// accumulation), proving the true distance also exceeds the limit.
func TestSquaredEuclideanBoundedExact(t *testing.T) {
	rng := NewRNG(2)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		a := sparseVec(rng, n, 0.6)
		b := sparseVec(rng, n, 0.6)
		exact := SquaredEuclidean(a, b)
		for _, limit := range []float64{0, exact / 2, exact, exact * 2, math.Inf(1)} {
			got, full := SquaredEuclideanBounded(a, b, limit)
			if full {
				if math.Float64bits(got) != math.Float64bits(exact) {
					t.Fatalf("trial %d: full scan %v != exact %v", trial, got, exact)
				}
				continue
			}
			if got < limit {
				t.Fatalf("trial %d: abandoned with partial %v < limit %v", trial, got, limit)
			}
			if got > exact {
				t.Fatalf("trial %d: partial %v exceeds exact %v", trial, got, exact)
			}
		}
	}
}
