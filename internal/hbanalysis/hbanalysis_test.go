package hbanalysis

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/heartbeat"
	"github.com/incprof/incprof/internal/xmath"
)

// healthyRun synthesizes a run: hb1 beats 10x/interval at ~100ms, hb2 once
// per interval at ~2s, over n intervals, with mild deterministic jitter.
func healthyRun(n int, seed uint64) []heartbeat.Record {
	rng := xmath.NewRNG(seed)
	var recs []heartbeat.Record
	for i := 0; i < n; i++ {
		recs = append(recs, heartbeat.Record{
			Interval: i, Time: time.Duration(i+1) * time.Second, HB: 1,
			Count:        int64(9 + rng.Intn(3)),
			MeanDuration: time.Duration(95+rng.Intn(10)) * time.Millisecond,
		})
		recs = append(recs, heartbeat.Record{
			Interval: i, Time: time.Duration(i+1) * time.Second, HB: 2,
			Count:        1,
			MeanDuration: time.Duration(1900+rng.Intn(200)) * time.Millisecond,
		})
	}
	return recs
}

func TestSummarize(t *testing.T) {
	recs := healthyRun(50, 1)
	sums := Summarize(recs, func(id heartbeat.ID) string {
		if id == 1 {
			return "inner_loop"
		}
		return ""
	})
	if len(sums) != 2 {
		t.Fatalf("summaries = %d", len(sums))
	}
	s1 := sums[0]
	if s1.HB != 1 || s1.Name != "inner_loop" {
		t.Fatalf("first summary = %+v", s1)
	}
	if s1.ActiveIntervals != 50 {
		t.Fatalf("active = %d", s1.ActiveIntervals)
	}
	if s1.Rate.Mean() < 9 || s1.Rate.Mean() > 11 {
		t.Fatalf("rate mean = %v", s1.Rate.Mean())
	}
	if s1.Duration.Mean() < 0.09 || s1.Duration.Mean() > 0.11 {
		t.Fatalf("duration mean = %v", s1.Duration.Mean())
	}
	if s1.TotalBeats < 400 {
		t.Fatalf("total beats = %d", s1.TotalBeats)
	}
}

func TestBaselineRequiresData(t *testing.T) {
	if _, err := NewBaseline(nil); err == nil {
		t.Fatal("empty baseline accepted")
	}
	b, err := NewBaseline(healthyRun(10, 1), healthyRun(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if b.Runs() != 2 {
		t.Fatalf("runs = %d", b.Runs())
	}
	if !b.Known(1) || b.Known(99) {
		t.Fatal("Known wrong")
	}
}

func TestHealthyRunPassesCheck(t *testing.T) {
	b, err := NewBaseline(healthyRun(100, 1), healthyRun(100, 2), healthyRun(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	anomalies := b.Check(healthyRun(100, 4))
	if len(anomalies) != 0 {
		t.Fatalf("healthy run flagged: %v", anomalies)
	}
	if f := b.SlowdownFactor(healthyRun(100, 5)); math.Abs(f-1) > 0.05 {
		t.Fatalf("healthy slowdown factor = %v", f)
	}
}

func TestInjectedSlowdownDetected(t *testing.T) {
	b, err := NewBaseline(healthyRun(100, 1), healthyRun(100, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Fault injection: intervals 40-44 run hb1 3x slower (e.g. noisy
	// neighbor or failing disk), which also drops its rate.
	run := healthyRun(100, 7)
	for i := range run {
		if run[i].HB == 1 && run[i].Interval >= 40 && run[i].Interval < 45 {
			run[i].MeanDuration *= 3
			run[i].Count /= 3
		}
	}
	anomalies := b.Check(run)
	if len(anomalies) == 0 {
		t.Fatal("injected slowdown not detected")
	}
	flagged := map[int]bool{}
	for _, a := range anomalies {
		if a.HB != 1 {
			t.Fatalf("anomaly on wrong heartbeat: %+v", a)
		}
		if a.Interval < 40 || a.Interval >= 45 {
			t.Fatalf("false positive at interval %d: %+v", a.Interval, a)
		}
		flagged[a.Interval] = true
		if a.Kind == DurationHigh && a.Score < 4 {
			t.Fatalf("weak score for 3x slowdown: %+v", a)
		}
	}
	for i := 40; i < 45; i++ {
		if !flagged[i] {
			t.Fatalf("interval %d not flagged", i)
		}
	}
	// 5 of 100 intervals slowed on one of two heartbeats: a small but
	// positive overall slowdown.
	if f := b.SlowdownFactor(run); f < 1.005 {
		t.Fatalf("slowdown factor = %v, want > 1.005", f)
	}
}

// A baseline with no spread judges against a σ floored at 5 % of its mean,
// and flags only |z| > 4: at 100 ms that is past 120 ms, at 10 beats past 12.
func TestCheckFlagsBeyondFourFlooredSigmas(t *testing.T) {
	steady := func(n int) []heartbeat.Record {
		recs := make([]heartbeat.Record, n)
		for i := range recs {
			recs[i] = heartbeat.Record{Interval: i, HB: 1, Count: 10, MeanDuration: 100 * time.Millisecond}
		}
		return recs
	}
	b, err := NewBaseline(steady(4), steady(4), steady(4))
	if err != nil {
		t.Fatal(err)
	}
	run := steady(4)
	run[0].MeanDuration = 119 * time.Millisecond // z = 3.8
	run[1].MeanDuration = 121 * time.Millisecond // z = 4.2
	run[2].Count = 12                            // z = 4 exactly
	run[3].Count = 13                            // z = 6
	got := b.Check(run)
	if len(got) != 2 {
		t.Fatalf("anomalies = %v, want intervals 1 and 3 only", got)
	}
	if a := got[0]; a.Interval != 3 || a.Kind != RateHigh || math.Abs(a.Score-6) > 1e-9 {
		t.Fatalf("first anomaly = %+v, want interval 3 RateHigh at z 6", a)
	}
	if a := got[1]; a.Interval != 1 || a.Kind != DurationHigh || math.Abs(a.Score-4.2) > 1e-9 {
		t.Fatalf("second anomaly = %+v, want interval 1 DurationHigh at z 4.2", a)
	}
}

func TestRateAnomalies(t *testing.T) {
	b, err := NewBaseline(healthyRun(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	run := healthyRun(100, 8)
	run[0].Count = 100 // hb1 interval 0: rate spike
	anomalies := b.Check(run)
	foundHigh := false
	for _, a := range anomalies {
		if a.Kind == RateHigh && a.Interval == 0 {
			foundHigh = true
		}
	}
	if !foundHigh {
		t.Fatalf("rate spike not flagged: %v", anomalies)
	}
}

func TestUnknownSiteFlagged(t *testing.T) {
	b, err := NewBaseline(healthyRun(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	run := []heartbeat.Record{{Interval: 0, HB: 42, Count: 1, MeanDuration: time.Second}}
	anomalies := b.Check(run)
	if len(anomalies) != 1 || anomalies[0].Kind != UnknownSite {
		t.Fatalf("anomalies = %v", anomalies)
	}
}

func TestAnomalyOrderingByScore(t *testing.T) {
	b, err := NewBaseline(healthyRun(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	run := healthyRun(100, 9)
	for i := range run {
		if run[i].HB != 2 {
			continue
		}
		switch run[i].Interval {
		case 10:
			run[i].MeanDuration *= 2
		case 20:
			run[i].MeanDuration *= 5
		}
	}
	anomalies := b.Check(run)
	if len(anomalies) < 2 {
		t.Fatalf("anomalies = %v", anomalies)
	}
	if anomalies[0].Interval != 20 {
		t.Fatalf("worst anomaly not first: %+v", anomalies[0])
	}
}

func TestFormatAnomaly(t *testing.T) {
	cases := []struct {
		a    Anomaly
		want string
	}{
		{Anomaly{HB: 1, Interval: 3, Kind: DurationHigh, Score: 5, Observed: 0.3, Expected: 0.1}, "duration"},
		{Anomaly{HB: 1, Interval: 3, Kind: RateLow, Score: 5, Observed: 2, Expected: 10}, "rate"},
		{Anomaly{HB: 9, Interval: 0, Kind: UnknownSite}, "unknown"},
	}
	for _, c := range cases {
		got := FormatAnomaly(c.a)
		if got == "" || !containsFold(got, c.want) {
			t.Fatalf("FormatAnomaly(%+v) = %q", c.a, got)
		}
	}
	if DurationHigh.String() != "duration-high" || AnomalyKind(9).String() == "" {
		t.Fatal("kind strings")
	}
}

func containsFold(s, sub string) bool {
	return strings.Contains(strings.ToLower(s), sub)
}

func TestPerIntervalBaselineHandlesStructuralSlowIntervals(t *testing.T) {
	// A run with one structurally slow interval (index 30, e.g. a mesh
	// adaptation) repeated identically across reference runs: a healthy
	// new run with the same slow interval must NOT be flagged, but the
	// same deviation appearing elsewhere must be.
	mkRun := func(seed uint64, slowAt int) []heartbeat.Record {
		run := healthyRun(60, seed)
		for i := range run {
			if run[i].HB == 1 && run[i].Interval == slowAt {
				run[i].MeanDuration = 2 * time.Second // ~20x the usual 100ms
			}
		}
		return run
	}
	b, err := NewBaseline(mkRun(1, 30), mkRun(2, 30), mkRun(3, 30))
	if err != nil {
		t.Fatal(err)
	}
	if anoms := b.Check(mkRun(4, 30)); len(anoms) != 0 {
		t.Fatalf("structural slow interval flagged: %v", anoms)
	}
	// The same slowness at a different interval IS anomalous.
	anoms := b.Check(mkRun(5, 45))
	foundAt45 := false
	for _, a := range anoms {
		if a.Interval == 45 && a.Kind == DurationHigh {
			foundAt45 = true
		}
		if a.Interval == 30 && a.Kind == DurationHigh {
			// interval 30 is now FAST relative to its slow baseline:
			// one-sided duration check must not flag it.
			t.Fatalf("fast interval flagged as DurationHigh: %+v", a)
		}
	}
	if !foundAt45 {
		t.Fatalf("misplaced slowness not flagged: %v", anoms)
	}
}
