package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// phasedetectBin is the binary under test, built once for the package.
var phasedetectBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	phasedetectBin = filepath.Join(dir, "phasedetect")
	build := exec.Command("go", "build", "-o", phasedetectBin, "github.com/incprof/incprof/cmd/phasedetect")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building phasedetect:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// Every workload at 1/50 size goes through both passes and reports exactly
// the metrics BENCHMARK.json declares, with no failed operation. Under
// -short only the traced pass runs.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			if !trace && testing.Short() {
				continue
			}
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				e := env{phasedetect: phasedetectBin, work: t.TempDir(), seed: 1}
				rec := runWorkload(e, w.scaled(50), trace, spec, "")
				declared := spec.EndToEnd
				if trace {
					declared = spec.PerLayer
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Errorf("correct %v, %d of %d failed: %v", rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
				}
				if len(rec.Metrics) != len(declared) {
					t.Errorf("%d metrics, %d declared", len(rec.Metrics), len(declared))
				}
				for _, m := range declared {
					if v, ok := rec.Metrics[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, v, m.Unit)
					}
				}
			})
		}
	}
}
