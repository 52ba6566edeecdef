package xmath

import (
	"math"
	"sort"
)

// Welford accumulates a streaming mean and variance without storing samples.
// The zero value is an empty accumulator.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples folded in.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance, or 0 with fewer than 2 samples.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the unbiased sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest sample, or 0 for an empty accumulator.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample, or 0 for an empty accumulator.
func (w *Welford) Max() float64 { return w.max }

// Sum returns mean*n, the total of the samples.
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }

// Percentile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice and
// does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("xmath: Percentile of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Euclidean returns the L2 distance between equal-length vectors.
// It panics on length mismatch.
func Euclidean(a, b []float64) float64 {
	return math.Sqrt(SquaredEuclidean(a, b))
}

// SquaredEuclidean returns the squared L2 distance between equal-length
// vectors; it is the distance k-means minimizes. It panics on mismatch.
func SquaredEuclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("xmath: dimension mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// SquaredEuclideanBounded accumulates SquaredEuclidean(a, b) but abandons the
// scan once the partial sum reaches limit, returning (partial, false). A
// complete scan returns (exact distance, true).
//
// Abandoning is exact, not heuristic: squared terms are non-negative, and
// adding a non-negative float to a partial sum can never decrease it (the
// nearest float to s+t with t >= 0 is >= s), so partial >= limit proves the
// full distance is >= limit. Callers comparing distances against a current
// best with a strict < therefore make exactly the decisions the full
// computation would. The limit check runs once per 8-dimension block to keep
// the inner loop tight; any checkpoint spacing preserves exactness.
func SquaredEuclideanBounded(a, b []float64, limit float64) (float64, bool) {
	if len(a) != len(b) {
		panic("xmath: dimension mismatch")
	}
	var s float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		for j := i; j < i+8; j++ {
			d := a[j] - b[j]
			s += d * d
		}
		if s >= limit {
			return s, false
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s, true
}

// Sum returns the total of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the average of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}
