package interval

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/incprof/incprof/internal/profile"
)

// benchStream is a production-scale stream: 500 dumps over 60 functions,
// optionally with dumps dropped so the robust path exercises gap repair.
func benchStream(drops int) []*profile.Sample {
	rng := rand.New(rand.NewSource(7))
	fns := make([]string, 60)
	for i := range fns {
		fns[i] = fmt.Sprintf("fn%02d", i)
	}
	snaps := genStream(rng, 500, fns)
	if drops > 0 {
		snaps = dropSeqs(snaps, pickDrops(rng, len(snaps), drops))
	}
	return snaps
}

// BenchmarkDifferenceP is one of the obs overhead-gate benchmarks: the strict
// differencing hot path, instrumentation present but disabled. CI compares
// it against an -tags obs_off build and fails on > 2% regression.
func BenchmarkDifferenceP(b *testing.B) {
	snaps := benchStream(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DifferenceP(snaps, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDifferenceRobust covers the salvage path, RobustStream's gap
// detection and split repair, for the same overhead gate.
func BenchmarkDifferenceRobust(b *testing.B) {
	snaps := benchStream(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := robust(snaps, GapSplit); err != nil {
			b.Fatal(err)
		}
	}
}
