package trajectory

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func metric(v float64) Metric { return Metric{Value: v, Unit: "ns/op", NoisePct: 5} }

func valid() *Trajectory {
	return &Trajectory{
		Version: Version,
		Entries: []Entry{
			{Date: "2026-08-01", Note: "baseline", Metrics: map[string]Metric{
				"sweep/BenchmarkSweep": metric(100),
				"a12/wall_ms":          {Value: 1200, Unit: "ms", Ungated: true},
			}},
			{Date: "2026-08-08", Metrics: map[string]Metric{
				"sweep/BenchmarkSweep": metric(90),
			}},
		},
	}
}

func TestRoundTripByteIdentity(t *testing.T) {
	enc1, err := valid().Encode()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(enc1)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := parsed.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("encode -> parse -> encode changed bytes:\n%s\nvs\n%s", enc1, enc2)
	}
}

func TestAppendParseAppendIsStable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	traj := &Trajectory{Version: Version}
	traj.Append(valid().Entries[0])
	if err := traj.Save(path); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	reloaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	reloaded.Append(valid().Entries[1])
	if err := reloaded.Save(path); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The original entry's bytes must be embedded unchanged in the grown
	// file: append must never churn committed history.
	firstBody := strings.TrimSuffix(string(first), "\n  ]\n}\n")
	if !strings.HasPrefix(string(second), firstBody) {
		t.Fatalf("appending rewrote the existing entry:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

func TestLoadMissingFileIsEmptyHistory(t *testing.T) {
	traj, err := Load(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	if traj.Version != Version || len(traj.Entries) != 0 || traj.Latest() != nil {
		t.Fatalf("empty history = %+v", traj)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"wrong version":     `{"version": 2, "entries": []}`,
		"missing version":   `{"entries": []}`,
		"unknown field":     `{"version": 1, "entries": [], "extra": 1}`,
		"trailing data":     `{"version": 1, "entries": []}{"version": 1}`,
		"truncated":         `{"version": 1, "entries": [{"date": "2026-08-08", "metr`,
		"bad date":          `{"version": 1, "entries": [{"date": "yesterday", "metrics": {"a": {"value": 1, "unit": "ms", "noise_pct": 0}}}]}`,
		"no metrics":        `{"version": 1, "entries": [{"date": "2026-08-08", "metrics": {}}]}`,
		"no unit":           `{"version": 1, "entries": [{"date": "2026-08-08", "metrics": {"a": {"value": 1, "noise_pct": 0}}}]}`,
		"NaN literal":       `{"version": 1, "entries": [{"date": "2026-08-08", "metrics": {"a": {"value": NaN, "unit": "ms", "noise_pct": 0}}}]}`,
		"Inf via exponent":  `{"version": 1, "entries": [{"date": "2026-08-08", "metrics": {"a": {"value": 1e999, "unit": "ms", "noise_pct": 0}}}]}`,
		"negative noise":    `{"version": 1, "entries": [{"date": "2026-08-08", "metrics": {"a": {"value": 1, "unit": "ms", "noise_pct": -3}}}]}`,
		"string value":      `{"version": 1, "entries": [{"date": "2026-08-08", "metrics": {"a": {"value": "NaN", "unit": "ms", "noise_pct": 0}}}]}`,
		"not an object":     `[1, 2, 3]`,
		"empty metric name": `{"version": 1, "entries": [{"date": "2026-08-08", "metrics": {"": {"value": 1, "unit": "ms", "noise_pct": 0}}}]}`,
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if traj, err := Parse([]byte(data)); err == nil {
				t.Fatalf("parsed without error: %+v", traj)
			}
		})
	}
}

func TestEncodeRefusesNonFinite(t *testing.T) {
	traj := valid()
	traj.Entries[0].Metrics["bad"] = Metric{Value: math.Inf(1), Unit: "ms"}
	if _, err := traj.Encode(); err == nil {
		t.Fatal("encoded a non-finite metric")
	}
}

func TestGateRegressionAndGuards(t *testing.T) {
	prev := &Entry{Date: "2026-08-01", Metrics: map[string]Metric{
		"gated/slow":    {Value: 100, Unit: "ns/op", NoisePct: 2},
		"gated/noisy":   {Value: 100, Unit: "ns/op", NoisePct: 30},
		"info/walltime": {Value: 100, Unit: "ms", Ungated: true},
		"only/prev":     {Value: 100, Unit: "ns/op"},
		"zero/prev":     {Value: 0, Unit: "bytes"},
	}}
	cur := &Entry{Date: "2026-08-08", Metrics: map[string]Metric{
		"gated/slow":    {Value: 150, Unit: "ns/op", NoisePct: 2}, // real regression
		"gated/noisy":   {Value: 120, Unit: "ns/op", NoisePct: 3}, // inside prev noise
		"info/walltime": {Value: 900, Unit: "ms", Ungated: true},  // 9x but ungated
		"only/cur":      {Value: 1, Unit: "count"},                // no previous point
		"zero/prev":     {Value: 50, Unit: "bytes"},               // delta undefined
	}}
	comps, pass := Gate(prev, cur, 5)
	if pass {
		t.Fatal("gate passed despite a significant regression")
	}
	byName := map[string]Comparison{}
	for _, c := range comps {
		byName[c.Name] = c
	}
	if len(comps) != 4 {
		t.Fatalf("compared %d metrics, want 4 shared: %+v", len(comps), comps)
	}
	if byName["gated/slow"].Pass {
		t.Error("50% regression passed")
	}
	if !byName["gated/noisy"].Pass {
		t.Error("sub-noise delta failed the gate")
	}
	if !byName["info/walltime"].Pass {
		t.Error("ungated metric failed the gate")
	}
	if !byName["zero/prev"].Pass {
		t.Error("non-positive previous value failed the gate")
	}

	if _, pass := Gate(nil, cur, 5); !pass {
		t.Error("empty history did not pass trivially")
	}
}

func TestGateThresholdBoundary(t *testing.T) {
	prev := &Entry{Date: "2026-08-01", Metrics: map[string]Metric{"m": {Value: 100, Unit: "ns/op"}}}
	at := &Entry{Date: "2026-08-02", Metrics: map[string]Metric{"m": {Value: 105, Unit: "ns/op"}}}
	past := &Entry{Date: "2026-08-03", Metrics: map[string]Metric{"m": {Value: 105.1, Unit: "ns/op"}}}
	if _, pass := Gate(prev, at, 5); !pass {
		t.Error("regression exactly at threshold failed")
	}
	if _, pass := Gate(prev, past, 5); pass {
		t.Error("regression past threshold passed")
	}
}
