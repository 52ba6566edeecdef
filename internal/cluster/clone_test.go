package cluster

import (
	"reflect"
	"testing"
)

// Mutation safety for the streaming engine's warm-start path: centroids
// handed to CloneCentroids or WarmStartCSR must be fully decoupled from the
// copy.

func clusteredPoints() [][]float64 {
	return [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1},
		{5, 5}, {5.1, 5}, {5, 5.1},
	}
}

func TestCloneCentroidsNoAliasing(t *testing.T) {
	src := [][]float64{{1, 2}, {3, 4}}
	c := CloneCentroids(src)
	c[0][0] = 99
	c[1] = nil
	if src[0][0] != 1 || src[1][1] != 4 {
		t.Fatal("CloneCentroids aliases its input")
	}
	if CloneCentroids(nil) != nil {
		t.Fatal("CloneCentroids(nil) should be nil")
	}
}

func TestWarmStartDoesNotMutateSeedCentroids(t *testing.T) {
	points := clusteredPoints()
	seed := [][]float64{{0.5, 0.5}, {4, 4}}
	before := CloneCentroids(seed)
	r, err := WarmStartCSR(csr(points), seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seed, before) {
		t.Fatal("WarmStartCSR mutated the caller's centroids")
	}
	if len(r.Centroids) != 2 || r.WCSS <= 0 {
		t.Fatalf("degenerate warm-start result: %+v", r)
	}
}

// A centroid from before a dimension-growth refresh is shorter than the
// points; WarmStartCSR zero-pads it. Longer than the points is a caller bug and
// must error.
func TestWarmStartPadsShortCentroids(t *testing.T) {
	points := clusteredPoints()
	r, err := WarmStartCSR(csr(points), [][]float64{{0}, {5}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range r.Centroids {
		if len(c) != 2 {
			t.Fatalf("centroid %d has dim %d, want 2", i, len(c))
		}
	}
	if _, err := WarmStartCSR(csr(points), [][]float64{{1, 2, 3}}, Options{}); err == nil {
		t.Fatal("over-long centroid accepted")
	}
	if _, err := WarmStartCSR(csr(points), nil, Options{}); err == nil {
		t.Fatal("empty centroid set accepted")
	}
	if _, err := WarmStartCSR(csr(nil), [][]float64{{1}}, Options{}); err == nil {
		t.Fatal("empty point set accepted")
	}
}
