package main

import (
	"math"
	"testing"
)

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// gives, since that is how the spread of repeated runs is judged.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3.5, 1.25, 9, 2, 7, 7, 4}, 2, 4, 7},
		{[]float64{42}, 42, 42, 42},
	} {
		s := summarize(tc.xs)
		if s.N != len(tc.xs) || !near(s.Q1, tc.q1) || !near(s.Median, tc.m) || !near(s.Q3, tc.q3) {
			t.Errorf("summarize(%v) = %+v, want quartiles %v %v %v", tc.xs, s, tc.q1, tc.m, tc.q3)
		}
	}
	if s := summarize(nil); s.N != 0 || !math.IsNaN(s.Median) {
		t.Errorf("summarize(nil) = %+v, want no samples and a NaN median", s)
	}
	if got := summarize([]float64{8, 10, 12, 14, 16}).spread(); !near(got, (15-9)/12.0) {
		t.Errorf("spread = %v, want IQR over median %v", got, 0.5)
	}
}

// A tail percentile counts only when at least 10 samples lie beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true}, // 10 beyond
		{999, 99, 990, false}, // 9 beyond
		{100, 99, 99, false},
		{100, 50, 50, true},
		{20, 50, 10, true},
		{19, 50, 10, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported as supported")
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Better: "lower", Bound: 0.1}
	higher := specMetric{Better: "higher", Bound: 0.1}
	layer := specMetric{Better: "lower"}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	for _, tc := range []struct {
		name string
		a, b []float64
		m    specMetric
		want string
	}{
		{"unchanged", steady, steady, lower, "same"},
		{"slower past the bound", steady, shift(steady, 1.2), lower, "worse"},
		{"slower within the bound", steady, shift(steady, 1.05), lower, "same"},
		{"every run faster", steady, shift(steady, 0.8), lower, "better"},
		{"faster median, overlapping runs", steady, []float64{95, 96, 97, 104, 97, 96}, lower, "same"},
		{"higher is better", steady, shift(steady, 0.8), higher, "worse"},
		{"too noisy to tell", []float64{50, 100, 150, 100, 60, 140}, []float64{55, 110, 145, 100}, lower, "unresolved"},
		{"layer moved against its direction", steady, shift(steady, 1.2), layer, "worse"},
		{"zero stays zero", []float64{0, 0, 0}, []float64{0, 0}, layer, "same"},
		{"zero grows", []float64{0, 0, 0}, []float64{10, 10}, layer, "worse"},
		{"zero grows, higher is better", []float64{0, 0, 0}, []float64{10, 10}, higher, "better"},
	} {
		if got := verdict(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
	for _, tc := range []struct {
		parent, change float64
		want           string
	}{
		{100, 120, "+20.0%"},
		{-50, -25, "+50.0%"},
		{0, 10, "+10"},
		{0, 0, "+0"},
	} {
		if got := delta(tc.parent, tc.change); got != tc.want {
			t.Errorf("delta(%v, %v) = %s, want %s", tc.parent, tc.change, got, tc.want)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
