package phase

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/xmath"
)

// detectionBytes serializes the comparable surface of a detection; byte
// equality of two of them is DetectMatrix's row-subset contract.
func detectionBytes(t *testing.T, det *Detection) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		K      int
		WCSS   []float64
		Phases []Phase
		Noise  []int
	}{det.K, det.WCSS, det.Phases, det.NoiseIntervals})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// subsetReference is DetectMatrix over a row subset, built from the separate
// public pieces: the subset's rows re-packed from their dense form, the
// SweepCSR sweep and the standalone selection on them, then a naive dense
// nearest-centroid scan over every row before phase assembly and Algorithm 1.
func subsetReference(t *testing.T, profiles []interval.Profile, m interval.Matrix, rows []int, opts Options) *Detection {
	t.Helper()
	opts = opts.withDefaults()
	dense := m.Sparse.Dense()
	sub := make([][]float64, len(rows))
	for j, r := range rows {
		sub[j] = dense[r]
	}
	sm := xmath.NewCSRFromDense(sub)
	results, err := cluster.SweepCSR(sm, opts.KMax, opts.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	best := cluster.SelectElbow(results)
	if opts.Selection == Silhouette {
		best = cluster.SelectSilhouetteCSR(sm, results, 1)
	}
	det := &Detection{K: best.K}
	for _, r := range results {
		det.WCSS = append(det.WCSS, r.WCSS)
	}
	assign := make([]int, len(dense))
	for i, p := range dense {
		bestD := math.Inf(1)
		for c, cent := range best.Centroids {
			if d := xmath.SquaredEuclidean(p, cent); d < bestD {
				assign[i], bestD = c, d
			}
		}
	}
	det.Phases = BuildPhases(profiles, assign, best.Centroids, best.K)
	for i := range det.Phases {
		SelectPhaseSites(&det.Phases[i], profiles, m, opts.CoverageThreshold, len(profiles))
	}
	return det
}

// FuzzDetectRows holds DetectMatrix's row subset to its two contracts on
// random phase workloads under both selection methods: every row equals nil
// rows byte for byte, and a random sorted subset equals the subset sweep plus
// a naive nearest-centroid scan. Odd picks coarsen the times so that rows
// repeat and the nearest-centroid scan meets exact ties.
func FuzzDetectRows(f *testing.F) {
	f.Add(uint64(1), uint64(2), false)
	f.Add(uint64(7), uint64(99), true)
	f.Add(uint64(42), uint64(0), false)
	f.Add(uint64(3), uint64(5), true)
	f.Fuzz(func(t *testing.T, seed, pick uint64, silhouette bool) {
		profs := randomWorkload(seed)
		if pick&1 == 1 {
			// Coarse times repeat rows, so centroids and distances tie.
			for _, p := range profs {
				for fn, d := range p.Self {
					p.Self[fn] = d.Round(250 * time.Millisecond)
				}
			}
		}
		opts := Options{Cluster: cluster.Options{Seed: seed, Parallelism: 1 + int(pick%4)}}
		if silhouette {
			opts.Selection = Silhouette
		}
		m := interval.FeaturesCSR(profs, opts.Features)
		whole, err := DetectMatrix(rowsOf(profs), m, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, len(profs))
		for i := range all {
			all[i] = i
		}
		got, err := DetectMatrix(rowsOf(profs), m, all, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(detectionBytes(t, got), detectionBytes(t, whole)) {
			t.Fatalf("every row (k=%d) differs from nil rows (k=%d)", got.K, whole.K)
		}

		rng := xmath.NewRNG(pick)
		var rows []int
		for i := range profs {
			if rng.Intn(3) != 0 {
				rows = append(rows, i)
			}
		}
		if len(rows) == 0 {
			rows = []int{rng.Intn(len(profs))}
		}
		got, err = DetectMatrix(rowsOf(profs), m, rows, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := subsetReference(t, profs, m, rows, opts)
		if !bytes.Equal(detectionBytes(t, got), detectionBytes(t, want)) {
			t.Fatalf("%d of %d rows (k=%d) differ from the subset reference (k=%d)", len(rows), len(profs), got.K, want.K)
		}
	})
}

// A row subset must be non-empty, strictly ascending, in range, and used
// with k-means.
func TestDetectMatrixRejectsBadRows(t *testing.T) {
	profs := twoPhaseWorkload()
	m := interval.FeaturesCSR(profs, interval.FeatureOptions{})
	for name, rows := range map[string][]int{
		"empty":        {},
		"unsorted":     {3, 1},
		"duplicate":    {2, 2},
		"negative":     {-1, 4},
		"out of range": {0, len(profs)},
	} {
		if _, err := DetectMatrix(rowsOf(profs), m, rows, Options{}); err == nil {
			t.Errorf("%s rows %v accepted", name, rows)
		}
	}
	if _, err := DetectMatrix(rowsOf(profs), m, []int{0, 5, 20}, Options{Algorithm: DBSCANAlg}); err == nil {
		t.Error("DBSCAN accepted a row subset")
	}
}

// RefreshRows is nil up to the budget and above it one row per stratum:
// 384 strictly ascending rows, row s inside [s·n/384, (s+1)·n/384), drawn
// the same way every time for the same (n, seed).
func TestRefreshRows(t *testing.T) {
	for _, n := range []int{0, 1, 384} {
		if rows := RefreshRows(n, 7); rows != nil {
			t.Fatalf("RefreshRows(%d) = %d rows, want nil", n, len(rows))
		}
	}
	for _, n := range []int{385, 768, 1000, 7200} {
		rows := RefreshRows(n, 7)
		if len(rows) != refreshRowBudget {
			t.Fatalf("RefreshRows(%d) = %d rows, want %d", n, len(rows), refreshRowBudget)
		}
		for s, r := range rows {
			if lo, hi := s*n/refreshRowBudget, (s+1)*n/refreshRowBudget; r < lo || r >= hi {
				t.Fatalf("n=%d: row %d = %d outside stratum [%d, %d)", n, s, r, lo, hi)
			}
		}
		again := RefreshRows(n, 7)
		for s := range rows {
			if rows[s] != again[s] {
				t.Fatalf("n=%d: RefreshRows is not deterministic at stratum %d", n, s)
			}
		}
	}
	a, b := RefreshRows(1000, 1), RefreshRows(1000, 2)
	same := 0
	for s := range a {
		if a[s] == b[s] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("RefreshRows ignores the seed")
	}
}
