package harness

import (
	"testing"

	"github.com/incprof/incprof/internal/apps"
	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/mpi"
	"github.com/incprof/incprof/internal/pipeline"
)

// TestSweepParallelismGoldenAcrossApps is the determinism gate for the
// parallel analysis path: for every evaluation application's real feature
// matrix, the k-means sweep at Parallelism 1 and Parallelism 8 must return
// bit-identical Assign, Centroids, and WCSS for the same seed.
func TestSweepParallelismGoldenAcrossApps(t *testing.T) {
	for _, name := range []string{"graph500", "minife", "miniamr", "lammps", "gadget"} {
		name := name
		t.Run(name, func(t *testing.T) {
			app, err := apps.New(name, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			profs, err := interval.Difference(res.Snapshots[0])
			if err != nil {
				t.Fatal(err)
			}
			m := interval.FeaturesCSR(profs, interval.FeatureOptions{Exclude: mpi.IsMPIFunc})
			if m.Dims() == 0 {
				t.Fatal("empty feature matrix")
			}
			serial, err := cluster.SweepCSR(m.Sparse, 8, cluster.Options{Seed: 1, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := cluster.SweepCSR(m.Sparse, 8, cluster.Options{Seed: 1, Parallelism: 8})
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != len(parallel) {
				t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
			}
			for i := range serial {
				s, p := serial[i], parallel[i]
				if s.K != p.K || s.WCSS != p.WCSS {
					t.Fatalf("k=%d: WCSS %v vs %v", i+1, s.WCSS, p.WCSS)
				}
				for j := range s.Assign {
					if s.Assign[j] != p.Assign[j] {
						t.Fatalf("k=%d: Assign[%d] = %d vs %d", i+1, j, s.Assign[j], p.Assign[j])
					}
				}
				for c := range s.Centroids {
					for d := range s.Centroids[c] {
						if s.Centroids[c][d] != p.Centroids[c][d] {
							t.Fatalf("k=%d: Centroids[%d][%d] = %v vs %v",
								i+1, c, d, s.Centroids[c][d], p.Centroids[c][d])
						}
					}
				}
			}
		})
	}
}

// TestAnalyzeParallelismInvariant runs the full Analyze step (differencing,
// sweep, selection, Algorithm 1) serially and on an 8-worker pool and
// asserts the detections agree phase for phase and site for site.
func TestAnalyzeParallelismInvariant(t *testing.T) {
	app, err := apps.New("minife", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	analyze := func(parallelism int) *pipeline.Analysis {
		opts := pipeline.AnalyzeOptions{Parallelism: parallelism}
		opts.Phase.Cluster.Seed = 1
		a, err := pipeline.Analyze(res, opts)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	serial, parallel := analyze(1), analyze(8)
	sd, pd := serial.Detection, parallel.Detection
	if sd.K != pd.K || len(sd.Phases) != len(pd.Phases) {
		t.Fatalf("K/phases differ: %d/%d vs %d/%d", sd.K, len(sd.Phases), pd.K, len(pd.Phases))
	}
	for i := range sd.WCSS {
		if sd.WCSS[i] != pd.WCSS[i] {
			t.Fatalf("WCSS[%d] = %v vs %v", i, sd.WCSS[i], pd.WCSS[i])
		}
	}
	for i := range sd.Phases {
		sp, pp := sd.Phases[i], pd.Phases[i]
		if len(sp.Intervals) != len(pp.Intervals) || len(sp.Sites) != len(pp.Sites) {
			t.Fatalf("phase %d shape differs", i)
		}
		for j := range sp.Intervals {
			if sp.Intervals[j] != pp.Intervals[j] {
				t.Fatalf("phase %d interval %d differs", i, j)
			}
		}
		for j := range sp.Sites {
			if sp.Sites[j] != pp.Sites[j] {
				t.Fatalf("phase %d site %d: %+v vs %+v", i, j, sp.Sites[j], pp.Sites[j])
			}
		}
	}
}
