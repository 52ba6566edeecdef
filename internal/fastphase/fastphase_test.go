package fastphase

import (
	"math"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/apps"
	_ "github.com/incprof/incprof/internal/apps/gadget"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/mpi"
	"github.com/incprof/incprof/internal/pipeline"
)

func TestPearsonBasics(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := Pearson(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self correlation = %v", got)
	}
	b := []float64{4, 3, 2, 1}
	if got := Pearson(a, b); math.Abs(got+1) > 1e-12 {
		t.Fatalf("anti correlation = %v", got)
	}
	flat := []float64{5, 5, 5, 5}
	if got := Pearson(a, flat); got != 0 {
		t.Fatalf("constant series correlation = %v", got)
	}
	if got := Pearson(a, []float64{1}); got != 0 {
		t.Fatalf("length mismatch = %v", got)
	}
}

func TestAutocorrelationPeriodicSignal(t *testing.T) {
	// Period-5 square wave.
	s := make([]float64, 100)
	for i := range s {
		if i%5 == 0 {
			s[i] = 1
		}
	}
	if got := Autocorrelation(s, 5); got < 0.9 {
		t.Fatalf("ACF at true period = %v, want ~1", got)
	}
	if got := Autocorrelation(s, 3); got > 0.1 {
		t.Fatalf("ACF off-period = %v, want ~<0", got)
	}
	if Autocorrelation(s, 0) != 0 || Autocorrelation(s, 100) != 0 {
		t.Fatal("out-of-range lags must be 0")
	}
	if Autocorrelation([]float64{2, 2, 2}, 1) != 0 {
		t.Fatal("constant series must be 0")
	}
}

func TestDominantPeriod(t *testing.T) {
	s := make([]float64, 120)
	for i := range s {
		if i%8 < 2 {
			s[i] = 1
		}
	}
	lag, strength := DominantPeriod(s, 40)
	if lag != 8 {
		t.Fatalf("dominant period = %d, want 8", lag)
	}
	if strength < 0.5 {
		t.Fatalf("strength = %v", strength)
	}
	// Noise-free aperiodic: one spike has no repeating peak.
	spike := make([]float64, 50)
	spike[25] = 1
	if lag, _ := DominantPeriod(spike, 20); lag != 0 {
		t.Fatalf("spike reported period %d", lag)
	}
}

// synthProfiles builds interval profiles for a fast loop calling a, b, c
// twice per interval, plus an independent slow function.
func synthProfiles(n int) []interval.Profile {
	profs := make([]interval.Profile, n)
	for i := range profs {
		profs[i] = interval.Profile{
			Index:     i,
			Self:      map[string]time.Duration{},
			ExactSelf: map[string]time.Duration{},
			Calls:     map[string]int64{},
		}
		// Loop rate varies together between 1 and 3 calls/interval.
		rate := int64(1 + (i % 3))
		for _, fn := range []string{"loop_a", "loop_b"} {
			profs[i].Calls[fn] = rate
			profs[i].Self[fn] = 300 * time.Millisecond
		}
		profs[i].Calls["loop_c"] = 2 * rate // helper called twice per iteration
		profs[i].Self["loop_c"] = 100 * time.Millisecond
		// Periodic burst every 7 intervals.
		if i%7 == 0 {
			profs[i].Self["burst"] = 800 * time.Millisecond
			profs[i].Calls["burst"] = 4
		}
		// Uncorrelated occasional function.
		if i%2 == 0 {
			profs[i].Calls["other"] = 5 - rate // anti-correlated-ish
			profs[i].Self["other"] = 50 * time.Millisecond
		}
	}
	return profs
}

func TestAnalyzeGroupsCorrelatedLoopFunctions(t *testing.T) {
	res := Analyze(synthProfiles(84), Options{})
	if len(res.Groups) == 0 {
		t.Fatal("no loop groups found")
	}
	g := res.Groups[0]
	want := map[string]bool{"loop_a": true, "loop_b": true, "loop_c": true}
	if len(g.Functions) != 3 {
		t.Fatalf("group = %+v, want the three loop functions", g)
	}
	for _, fn := range g.Functions {
		if !want[fn] {
			t.Fatalf("unexpected member %s in %+v", fn, g)
		}
	}
	if g.RatePerInterval < 1.5 || g.RatePerInterval > 2.5 {
		t.Fatalf("loop rate = %v, want ~2 (slowest member)", g.RatePerInterval)
	}
}

func TestAnalyzeFindsBurstPeriodicity(t *testing.T) {
	res := Analyze(synthProfiles(84), Options{})
	for _, p := range res.Periodicities {
		if p.Function == "burst" {
			if p.Period != 7 {
				t.Fatalf("burst period = %d, want 7", p.Period)
			}
			return
		}
	}
	t.Fatalf("burst periodicity not detected: %+v", res.Periodicities)
}

func TestAnalyzeTooShort(t *testing.T) {
	res := Analyze(synthProfiles(3), Options{})
	if len(res.Groups) != 0 || len(res.Periodicities) != 0 {
		t.Fatalf("analysis on 3 intervals produced %+v", res)
	}
}

func TestAnalyzeExclude(t *testing.T) {
	res := Analyze(synthProfiles(84), Options{
		Exclude: func(fn string) bool { return fn == "loop_c" },
	})
	for _, g := range res.Groups {
		for _, fn := range g.Functions {
			if fn == "loop_c" {
				t.Fatal("excluded function grouped")
			}
		}
	}
}

// The paper's Gadget2 case: interval clustering cannot see the four main
// timestep functions, but fast-phase call-count grouping recovers them.
func TestGadgetMainLoopRecovered(t *testing.T) {
	app, err := apps.New("gadget", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	an, err := pipeline.Analyze(res, pipeline.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fast := Analyze(interval.Profiles(an.Profiles), Options{Exclude: mpi.IsMPIFunc})
	if len(fast.Groups) == 0 {
		t.Fatal("no fast loops found in gadget")
	}
	members := map[string]bool{}
	for _, fn := range fast.Groups[0].Functions {
		members[fn] = true
	}
	for _, fn := range []string{
		"find_next_sync_point_and_drift",
		"domain_decomposition",
		"compute_accelerations",
		"advance_and_find_timesteps",
	} {
		if !members[fn] {
			t.Fatalf("main-loop function %s not in the top fast group: %+v", fn, fast.Groups[0])
		}
	}
}

func BenchmarkAnalyze600Intervals(b *testing.B) {
	profs := synthProfiles(600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Analyze(profs, Options{})
	}
}
