package ldms

import (
	"errors"
	"net"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/heartbeat"
	"github.com/incprof/incprof/internal/vclock"
)

func staticSampler(producer string, v float64) Sampler {
	return SamplerFunc(func() (MetricSet, error) {
		return MetricSet{
			Producer: producer,
			Name:     "test",
			Time:     time.Second,
			Metrics:  []Metric{{Name: "x", Value: v}},
		}, nil
	})
}

func TestMetricSetGetAndNormalize(t *testing.T) {
	m := MetricSet{Metrics: []Metric{{Name: "z", Value: 1}, {Name: "a", Value: 2}}}
	m.Normalize()
	if m.Metrics[0].Name != "a" {
		t.Fatalf("not sorted: %+v", m.Metrics)
	}
	if v, ok := m.Get("z"); !ok || v != 1 {
		t.Fatalf("Get(z) = %v,%v", v, ok)
	}
	if _, ok := m.Get("missing"); ok {
		t.Fatal("Get found a missing metric")
	}
}

func TestAggregatorCollectOnce(t *testing.T) {
	agg := NewAggregator(nil, 0)
	store := NewMemStore()
	agg.AddStore(store)
	agg.AddSampler(staticSampler("rank0", 1))
	agg.AddSampler(staticSampler("rank1", 2))
	if err := agg.CollectOnce(); err != nil {
		t.Fatal(err)
	}
	sets := store.Sets()
	if len(sets) != 2 {
		t.Fatalf("stored %d sets", len(sets))
	}
	if agg.Pulls() != 1 {
		t.Fatalf("pulls = %d", agg.Pulls())
	}
}

func TestAggregatorVirtualClockSchedule(t *testing.T) {
	clock := vclock.New()
	agg := NewAggregator(clock, time.Second)
	defer agg.Close()
	store := NewMemStore()
	agg.AddStore(store)
	agg.AddSampler(staticSampler("rank0", 1))
	clock.Advance(3500 * time.Millisecond)
	if got := len(store.Sets()); got != 3 {
		t.Fatalf("collected %d sets over 3.5 virtual seconds, want 3", got)
	}
	agg.Close()
	clock.Advance(5 * time.Second)
	if got := len(store.Sets()); got != 3 {
		t.Fatal("aggregator still collecting after Close")
	}
}

func TestAggregatorContinuesPastFailingSampler(t *testing.T) {
	agg := NewAggregator(nil, 0)
	store := NewMemStore()
	agg.AddStore(store)
	agg.AddSampler(SamplerFunc(func() (MetricSet, error) {
		return MetricSet{}, errors.New("boom")
	}))
	agg.AddSampler(staticSampler("rank1", 2))
	err := agg.CollectOnce()
	if err == nil {
		t.Fatal("error swallowed")
	}
	if len(store.Sets()) != 1 {
		t.Fatal("healthy sampler not collected after failure")
	}
	if agg.Err() == nil {
		t.Fatal("Err not recorded")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, staticSampler("remote", 7))

	sampler, closer, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	for i := 0; i < 3; i++ {
		set, err := sampler.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if set.Producer != "remote" {
			t.Fatalf("set = %+v", set)
		}
		if v, ok := set.Get("x"); !ok || v != 7 {
			t.Fatalf("metric = %v,%v", v, ok)
		}
	}
}

func TestTCPTransportThroughAggregator(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, staticSampler("remote", 3))

	sampler, closer, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	agg := NewAggregator(nil, 0)
	store := NewMemStore()
	agg.AddStore(store)
	agg.AddSampler(sampler)
	if err := agg.CollectOnce(); err != nil {
		t.Fatal(err)
	}
	if len(store.Sets()) != 1 {
		t.Fatal("remote set not stored")
	}
}

// EKGSampler demonstrates the AppEKG-to-LDMS wiring: cumulative heartbeat
// totals exposed as a metric set.
func ekgSampler(e *heartbeat.EKG, clock *vclock.Clock, producer string) Sampler {
	return SamplerFunc(func() (MetricSet, error) {
		set := MetricSet{Producer: producer, Name: "appekg", Time: clock.Now().Duration()}
		for _, tot := range e.Totals() {
			set.Metrics = append(set.Metrics,
				Metric{Name: hbMetric(tot.HB, "count"), Value: float64(tot.Count)},
				Metric{Name: hbMetric(tot.HB, "total_s"), Value: tot.TotalDuration.Seconds()},
			)
		}
		set.Normalize()
		return set, nil
	})
}

func hbMetric(id heartbeat.ID, kind string) string {
	return "hb" + string(rune('0'+int(id))) + "_" + kind
}

func TestEKGIntegration(t *testing.T) {
	clock := vclock.New()
	ekg := heartbeat.New(heartbeat.Options{Clock: clock})
	agg := NewAggregator(clock, time.Second)
	defer agg.Close()
	store := NewMemStore()
	agg.AddStore(store)
	agg.AddSampler(ekgSampler(ekg, clock, "rank0"))

	for i := 0; i < 5; i++ {
		ekg.Begin(1)
		clock.Advance(300 * time.Millisecond)
		ekg.End(1)
	}
	sets := store.Sets()
	if len(sets) == 0 {
		t.Fatal("no LDMS pulls happened")
	}
	last := sets[len(sets)-1]
	count, ok := last.Get("hb1_count")
	if !ok || count == 0 {
		t.Fatalf("cumulative count missing: %+v", last)
	}
	// Counts are cumulative and non-decreasing across pulls.
	var prev float64 = -1
	for _, s := range sets {
		c, _ := s.Get("hb1_count")
		if c < prev {
			t.Fatalf("cumulative count regressed: %v after %v", c, prev)
		}
		prev = c
	}
}

func BenchmarkCollectOnce8Samplers(b *testing.B) {
	agg := NewAggregator(nil, 0)
	store := NewMemStore()
	agg.AddStore(store)
	for i := 0; i < 8; i++ {
		agg.AddSampler(staticSampler("rank", float64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agg.CollectOnce(); err != nil {
			b.Fatal(err)
		}
	}
}
