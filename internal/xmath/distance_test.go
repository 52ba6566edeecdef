package xmath

import (
	"math"
	"testing"
)

func TestEuclideanPaddedMatchesEuclideanOnEqualLengths(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 6, 3}
	if got, want := EuclideanPadded(a, b), Euclidean(a, b); got != want {
		t.Fatalf("EuclideanPadded = %v, Euclidean = %v", got, want)
	}
}

func TestEuclideanPaddedTreatsMissingDimsAsZero(t *testing.T) {
	long := []float64{3, 4, 5}
	short := []float64{3, 4}
	want := math.Sqrt(25)
	if got := EuclideanPadded(long, short); got != want {
		t.Fatalf("EuclideanPadded(long, short) = %v, want %v", got, want)
	}
	// Argument order must not matter: the shorter vector is padded
	// whichever side it is on.
	if got := EuclideanPadded(short, long); got != want {
		t.Fatalf("EuclideanPadded(short, long) = %v, want %v", got, want)
	}
}

func TestSquaredEuclideanPaddedEmptyAndNil(t *testing.T) {
	if got := SquaredEuclideanPadded(nil, nil); got != 0 {
		t.Fatalf("nil/nil = %v", got)
	}
	if got := SquaredEuclideanPadded([]float64{2}, nil); got != 4 {
		t.Fatalf("[2]/nil = %v", got)
	}
}

// The dedup satellite's guard: the shared kernel on equal-length vectors
// must not regress the tracker's hot path (compare with BenchmarkObserve in
// internal/online).
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

func BenchmarkEuclideanPaddedEqualLen(b *testing.B) {
	x := make([]float64, 64)
	y := make([]float64, 64)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(64 - i)
	}
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += EuclideanPadded(x, y)
	}
	_ = s
}

func BenchmarkEuclideanPaddedShortCentroid(b *testing.B) {
	x := make([]float64, 64)
	y := make([]float64, 40) // centroid lagging behind a grown space
	for i := range x {
		x[i] = float64(i)
	}
	for i := range y {
		y[i] = float64(40 - i)
	}
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += EuclideanPadded(x, y)
	}
	_ = s
}
