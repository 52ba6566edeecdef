// Command bench is the dumps-to-report benchmark: it generates a seeded,
// phase-structured dump corpus, runs the real phasedetect binary on it, and
// reports the end-to-end metrics declared in BENCHMARK.json. With -trace 1
// it instead calls every layer's public entry point in process and reports
// the per-layer metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload hpc-long -seed 1 [-seconds 10] [-trace 0|1] [-out r.json] [-spans s.json]
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh compare parent.json change.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the workloads and the metric declarations,
// whose units and directions the output and compare take from here.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specFile is BENCHMARK.json as run.sh's working directory, the repository
// root, sees it.
const specFile = "BENCHMARK.json"

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) metric(name string) (specMetric, bool) {
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return specMetric{}, false
}

// host describes the machine a result was measured on.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func thisHost() host {
	h := host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// value is one metric in the printed result.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the last output line carries.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one workload pass in a result file, with the in-run quartiles
// compare and later readers want.
type record struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// SpeedFactor is what the times were multiplied by to scale them to
	// the reference speed; dividing by it gives the time as measured.
	// LiveSpeedFactor is the live run's, for its CPU time and tail lag.
	SpeedFactor     float64            `json:"speed_factor,omitempty"`
	LiveSpeedFactor float64            `json:"live_speed_factor,omitempty"`
	Summaries       map[string]summary `json:"summaries,omitempty"`
	Problems        []string           `json:"problems,omitempty"`
}

// resultFile is what -out writes and compare reads.
type resultFile struct {
	Host host     `json:"host"`
	Runs []record `json:"runs"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "corpus seed")
	seconds := fs.Int("seconds", 0, "measuring time per workload (0: run_seconds from BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced phasedetect runs; 1: per-layer metrics from the traced in-process pass")
	out := fs.String("out", "", "also write the result, with quartiles and the host, to this file")
	spansOut := fs.String("spans", "", "with -trace 1, write the recorded spans to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := lookupWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	// run.sh builds phasedetect next to this program.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	pd := filepath.Join(filepath.Dir(exe), "phasedetect")
	if _, err := os.Stat(pd); err != nil {
		fmt.Fprintln(os.Stderr, "bench: phasedetect binary:", err)
		return 1
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	file := resultFile{Host: thisHost()}
	final := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range ws {
		work, err := os.MkdirTemp(".bench_build", "work-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		e := env{phasedetect: pd, work: work, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
		rec := runWorkload(e, w, *trace == 1, spec, *spansOut)
		os.RemoveAll(work)
		file.Runs = append(file.Runs, rec)
		printRecord(rec, spec)
		final.Correct = final.Correct && rec.Correct
		final.Attempted += rec.Attempted
		final.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if len(ws) > 1 {
				k = w.name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// runWorkload runs one pass of w and shapes its outcome into a record that
// carries exactly the metrics BENCHMARK.json declares for that pass.
func runWorkload(e env, w workload, trace bool, spec *benchSpec, spansOut string) record {
	fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %v\n", w.name, e.seed, trace)
	var o *outcome
	declared := spec.EndToEnd
	if trace {
		declared = spec.PerLayer
		tr := newTracer()
		o = traced(e, w, tr)
		if spansOut != "" {
			if err := tr.write(spansOut); err != nil {
				o.problem("writing spans: %v", err)
			}
		}
	} else {
		o = endToEnd(e, w)
	}
	rec := record{Workload: w.name, Seed: e.seed, Trace: trace, Attempted: max(o.attempted, 1), Failed: o.failed,
		Metrics: map[string]value{}, SpeedFactor: o.speedFactor, LiveSpeedFactor: o.liveSpeedFactor, Summaries: o.summaries}
	for _, m := range declared {
		v, ok := o.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			o.problem("metric %s was not measured", m.Name)
			v = 0
		}
		rec.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	for name := range o.metrics {
		if _, ok := rec.Metrics[name]; !ok {
			o.problem("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	rec.Problems = o.problems
	rec.Correct = len(o.problems) == 0 && o.failed == 0
	return rec
}

func printRecord(rec record, spec *benchSpec) {
	fmt.Printf("== %s (seed %d, trace %v): correct %v, %d attempted, %d failed\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Correct, rec.Attempted, rec.Failed)
	for _, p := range rec.Problems {
		fmt.Printf("   problem: %s\n", p)
	}
	if rec.SpeedFactor != 0 {
		fmt.Printf("   times scaled to the reference speed: measured times x %.4g\n", rec.SpeedFactor)
	}
	if rec.LiveSpeedFactor != 0 {
		fmt.Printf("   the live run's CPU time and tail lag: measured x %.4g\n", rec.LiveSpeedFactor)
	}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		v, ok := rec.Metrics[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("   %-34s %14.6g %-6s", m.Name, v.Value, v.Unit)
		if s, ok := rec.Summaries[m.Name]; ok && s.N > 1 {
			line += fmt.Sprintf("  of %d samples; quartiles %.6g %.6g %.6g", s.N, s.Q1, s.Median, s.Q3)
		}
		fmt.Println(line)
	}
}
