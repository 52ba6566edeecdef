package cluster

import "fmt"

// AdjustedRandIndex is the chance-corrected Rand index (Hubert & Arabie):
// 0 expected for random labelings, 1 for identical clusterings. The
// degenerate cases where the expected and maximum index coincide (both
// labelings put everything in one cluster, or both in singletons) agree on
// every pair and return 1.
func AdjustedRandIndex(a, b []int) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("cluster: AdjustedRandIndex length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	if n < 2 {
		return 1
	}
	// Contingency table.
	type key struct{ x, y int }
	cont := make(map[key]int)
	rowSums := make(map[int]int)
	colSums := make(map[int]int)
	for i := 0; i < n; i++ {
		cont[key{a[i], b[i]}]++
		rowSums[a[i]]++
		colSums[b[i]]++
	}
	choose2 := func(m int) float64 { return float64(m) * float64(m-1) / 2 }
	var sumCont, sumRows, sumCols float64
	for _, c := range cont {
		sumCont += choose2(c)
	}
	for _, r := range rowSums {
		sumRows += choose2(r)
	}
	for _, c := range colSums {
		sumCols += choose2(c)
	}
	totalPairs := choose2(n)
	expected := sumRows * sumCols / totalPairs
	maxIndex := (sumRows + sumCols) / 2
	if maxIndex == expected {
		// Only when sumRows and sumCols are both 0 (both labelings all
		// singletons) or both totalPairs (both one cluster): either way the
		// labelings agree on every pair.
		return 1
	}
	return (sumCont - expected) / (maxIndex - expected)
}
