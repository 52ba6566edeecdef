package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/incprof/incprof/internal/xmath"
)

func TestAdjustedRandIdentical(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	if got := AdjustedRandIndex(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI(a,a) = %v", got)
	}
}

func TestAdjustedRandRandomNearZero(t *testing.T) {
	rng := xmath.NewRNG(1)
	n := 3000
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(3)
		b[i] = rng.Intn(3)
	}
	if got := AdjustedRandIndex(a, b); math.Abs(got) > 0.03 {
		t.Fatalf("ARI of independent labelings = %v, want ~0", got)
	}
}

func TestAdjustedRandSingleClusterBoth(t *testing.T) {
	a := []int{0, 0, 0}
	b := []int{7, 7, 7}
	if got := AdjustedRandIndex(a, b); got != 1 {
		t.Fatalf("both-trivial ARI = %v, want 1", got)
	}
}

// Property: the index is symmetric and invariant under label renaming.
func TestPropertyAgreementSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xmath.NewRNG(seed)
		n := 20 + rng.Intn(30)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(4)
			b[i] = rng.Intn(4)
		}
		if math.Abs(AdjustedRandIndex(a, b)-AdjustedRandIndex(b, a)) > 1e-12 {
			return false
		}
		// Rename a's labels.
		renamed := make([]int, n)
		for i := range a {
			renamed[i] = 100 - a[i]
		}
		return math.Abs(AdjustedRandIndex(a, b)-AdjustedRandIndex(renamed, b)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
