// bench.go absorbs cmd/benchgate: the sweep benchmarks that feed the
// committed BENCH.json trajectory, and the obs-overhead gate comparing the
// default build (instrumentation present but disabled) against -tags obs_off
// (instrumentation compiled out) in interleaved rounds, so slow machine
// drift hits both builds equally. All statistics go through internal/gate/stat
// — min-of-rounds figures, noise-aware significance.
package tasks

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"github.com/incprof/incprof/internal/gate"
	"github.com/incprof/incprof/internal/gate/stat"
	"github.com/incprof/incprof/internal/gate/trajectory"
)

// sweepBench is the benchmark set tracked by the trajectory: the clustering
// hot path. Names here become "sweep/<benchmark>" metrics, so they must stay
// stable across PRs for the regression gate to bite. sweepAllocsBench is the
// headline benchmark whose allocs/op becomes the sweep/allocs_per_op metric;
// the reported name is bare on a single-CPU runner and carries a "-N"
// GOMAXPROCS suffix otherwise, so isAllocsBench matches both forms. The set
// is anchored, so a benchmark that only shares a prefix with it
// (BenchmarkSweepSelectSilhouette) stays ungated.
const (
	sweepBench       = "^(BenchmarkSweep|BenchmarkSweepDense|BenchmarkSilhouetteP|BenchmarkSelectSilhouetteP)$"
	sweepAllocsBench = "BenchmarkSweep/parallelism=1"
)

func isAllocsBench(name string) bool {
	return name == sweepAllocsBench || strings.HasPrefix(name, sweepAllocsBench+"-")
}

// runSweep measures the clustering hot path and records one gated trajectory
// metric per benchmark, plus the headline benchmark's allocs/op so the
// trajectory catches allocation regressions, not just time. The regression
// decision itself happens centrally in cmd/gate, against the newest committed
// BENCH.json entry.
func runSweep(c *gate.Context) error {
	out, err := capture(c, "go", "test", "./internal/cluster",
		"-run", "^$", "-bench", sweepBench, "-benchtime", "2x", "-count", "3", "-benchmem")
	if err != nil {
		return fmt.Errorf("sweep benchmarks: %w\n%s", err, out)
	}
	samples, err := stat.ParseBench(bytes.NewReader(out))
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("no benchmarks matched %q", sweepBench)
	}
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	allocsRecorded := false
	for _, name := range names {
		fig, err := stat.Summarize(samples[name].NsPerOp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		c.Logf("%-55s %12.0f ns/op (noise %.1f%%, %d rounds)", name, fig.Min, fig.NoisePct, fig.Rounds)
		c.Record("sweep/"+name, trajectory.Metric{Value: fig.Min, Unit: "ns/op", NoisePct: fig.NoisePct})
		if !isAllocsBench(name) {
			continue
		}
		afig, err := stat.SummarizeAllocs(samples[name].AllocsPerOp)
		if err != nil {
			return fmt.Errorf("%s allocs/op: %w", name, err)
		}
		c.Logf("%-55s %12.0f allocs/op (noise %.1f%%, %d rounds)", name, afig.Min, afig.NoisePct, afig.Rounds)
		c.Record("sweep/allocs_per_op", trajectory.Metric{Value: afig.Min, Unit: "allocs/op", NoisePct: afig.NoisePct})
		allocsRecorded = true
	}
	if !allocsRecorded {
		return fmt.Errorf("no allocs/op reported for %s; -benchmem missing?", sweepAllocsBench)
	}
	return nil
}

// obsBench is the hot-path set the overhead contract covers and
// obsThresholdPct the contract itself: instrumentation present-but-disabled
// must cost < 2% versus a build with it compiled out. The threshold is part
// of the contract, not a tuning knob, so it does not follow -threshold; the
// noise guard is what keeps it honest on loaded runners.
const (
	obsBench        = "BenchmarkDifferenceP$|BenchmarkDifferenceRobust$|BenchmarkSweep/parallelism=1$|BenchmarkSilhouetteP/parallelism=1$"
	obsThresholdPct = 2.0
	obsRounds       = 5
)

// runObs measures the observability layer's overhead in interleaved rounds:
// each round runs the benchmark set once under -tags obs_off and once under
// the default build, appending samples, so machine drift during the run hits
// both sides equally. Figures are min-of-rounds; a regression fails only
// when significant.
func runObs(c *gate.Context) error {
	var off, on bytes.Buffer
	pkgs := []string{"./internal/interval", "./internal/cluster"}
	for round := 1; round <= obsRounds; round++ {
		c.Logf("round %d/%d", round, obsRounds)
		offOut, err := capture(c, "go", append([]string{"test", "-tags", "obs_off"}, append(pkgs,
			"-run", "^$", "-bench", obsBench, "-benchtime", "10x", "-count", "1")...)...)
		if err != nil {
			return fmt.Errorf("obs_off round %d: %w", round, err)
		}
		off.Write(offOut)
		onOut, err := capture(c, "go", append([]string{"test"}, append(pkgs,
			"-run", "^$", "-bench", obsBench, "-benchtime", "10x", "-count", "1")...)...)
		if err != nil {
			return fmt.Errorf("default-build round %d: %w", round, err)
		}
		on.Write(onOut)
	}

	base, err := stat.ParseBench(&off)
	if err != nil {
		return err
	}
	cur, err := stat.ParseBench(&on)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(base))
	for name := range base {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no benchmarks shared between the obs_off and default builds")
	}
	var failed []string
	for _, name := range names {
		bFig, err := stat.Summarize(base[name].NsPerOp)
		if err != nil {
			return fmt.Errorf("%s (obs_off): %w", name, err)
		}
		cFig, err := stat.Summarize(cur[name].NsPerOp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		v, err := stat.Gate(bFig, cFig, obsThresholdPct)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		status := "ok"
		if !v.Pass {
			status = "REGRESSED"
			failed = append(failed, name)
		}
		c.Logf("%-55s %12.0f -> %12.0f ns/op  %+6.2f%% (noise %.2f%%)  %s",
			name, bFig.Min, cFig.Min, v.DeltaPct, v.NoisePct, status)
		c.Record("obs/"+name+"/overhead_pct", trajectory.Metric{Value: v.DeltaPct, Unit: "pct", Ungated: true})
	}
	if len(failed) > 0 {
		return fmt.Errorf("instrumentation overhead over %.1f%% on: %v", obsThresholdPct, failed)
	}
	return nil
}
