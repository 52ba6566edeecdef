package main

import (
	"math"
	"sort"
)

// summary describes a sample of one timing or count.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// summarize returns the median and quartiles of xs, computed as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so in-run
// summaries and the cross-run spread check agree on what a quartile is.
// One sample is its own quartiles; no samples give NaN.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		nan := math.NaN()
		return summary{Q1: nan, Median: nan, Q3: nan}
	case 1:
		return summary{N: 1, Q1: s[0], Median: s[0], Q3: s[0]}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{N: n, Q1: q(1), Median: med, Q3: q(3)}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs
// and whether at least 10 samples lie beyond it, the least a tail
// percentile needs to mean anything.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s)-rank >= 10
}

func median(xs []float64) float64 { return summarize(xs).Median }

func maximum(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
