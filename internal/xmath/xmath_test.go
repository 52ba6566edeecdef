package xmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/64 times", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64MeanNearHalf(t *testing.T) {
	r := NewRNG(9)
	var w Welford
	for i := 0; i < 100000; i++ {
		w.Add(r.Float64())
	}
	if m := w.Mean(); math.Abs(m-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", m)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.NormFloat64())
	}
	if math.Abs(w.Mean()) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", w.Mean())
	}
	if math.Abs(w.Stddev()-1) > 0.02 {
		t.Fatalf("normal stddev = %v, want ~1", w.Stddev())
	}
}

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if m := w.Mean(); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := w.Var(); math.Abs(v-32.0/7.0) > 1e-12 {
		t.Fatalf("Var = %v, want 32/7", v)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", w.Min(), w.Max())
	}
	if w.Sum() != 40 {
		t.Fatalf("Sum = %v, want 40", w.Sum())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Stddev() != 0 {
		t.Fatal("empty Welford not zero")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Must not modify input.
	unsorted := []float64{5, 1, 3}
	Percentile(unsorted, 0.5)
	if unsorted[0] != 5 {
		t.Fatal("Percentile sorted its input in place")
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Percentile(nil, 0.5)
}

func TestDistances(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := Euclidean(a, b); got != 5 {
		t.Fatalf("Euclidean = %v", got)
	}
	if got := SquaredEuclidean(a, b); got != 25 {
		t.Fatalf("SquaredEuclidean = %v", got)
	}
}

func TestDistanceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	Euclidean([]float64{1}, []float64{1, 2})
}

func TestSumMean(t *testing.T) {
	if Sum([]float64{1, 2, 3}) != 6 {
		t.Fatal("Sum")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
}

// Property: Euclidean satisfies the triangle inequality.
func TestPropertyTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := []float64{float64(ax), float64(ay)}
		b := []float64{float64(bx), float64(by)}
		c := []float64{float64(cx), float64(cy)}
		return Euclidean(a, c) <= Euclidean(a, b)+Euclidean(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkSquaredEuclidean64D(b *testing.B) {
	r := NewRNG(1)
	x := make([]float64, 64)
	y := make([]float64, 64)
	for i := range x {
		x[i], y[i] = r.Float64(), r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SquaredEuclidean(x, y)
	}
}
