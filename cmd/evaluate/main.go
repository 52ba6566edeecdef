// Command evaluate regenerates the paper's evaluation artifacts: Table I
// (setup & overhead), the per-application site tables (Tables II-VI), the
// heartbeat figures (Figures 2-6), and the ablation studies from DESIGN.md.
//
// Usage:
//
//	evaluate                  # everything at paper scale
//	evaluate -scale 0.2       # shrunk run
//	evaluate -table 1         # just Table I
//	evaluate -table 3         # just the MiniFE site table
//	evaluate -figure 4        # just the MiniAMR heartbeat figure
//	evaluate -ablation kselect
//	evaluate -ablation faults # A12: degradation under injected dump loss
//
// The faults ablation replays each application's snapshot stream through a
// seed-deterministic fault injector at increasing drop rates and reports
// how far the detected phases drift from the fault-free golden run
// (Adjusted Rand Index); output is byte-identical for a fixed -seed at any
// -parallel.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/incprof/incprof/internal/harness"
	"github.com/incprof/incprof/internal/obs/obsflag"
	"github.com/incprof/incprof/internal/par"
)

func main() {
	scale := flag.Float64("scale", 1.0, "application scale in (0, 1]; 1.0 reproduces paper-sized runs")
	table := flag.Int("table", 0, "regenerate one table (1-6); 0 means all")
	figure := flag.Int("figure", 0, "regenerate one heartbeat figure (2-6); 0 means all")
	ablation := flag.String("ablation", "", "run one ablation study: "+strings.Join(harness.AblationNames, "|"))
	width := flag.Int("width", 100, "ASCII figure width in columns")
	seed := flag.Uint64("seed", 1, "clustering seed")
	parallel := flag.Int("parallel", 0, "worker-pool bound for analysis and per-app experiments; 0 means GOMAXPROCS, 1 forces serial (results are identical either way)")
	csvDir := flag.String("csvdir", "", "export figure series as CSV files into this directory")
	obsFlags := obsflag.Register(flag.CommandLine)
	flag.Parse()

	cfg := harness.Config{Scale: *scale, Width: *width, Seed: *seed, Parallelism: *parallel, CSVDir: *csvDir}
	out := os.Stdout

	run := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "evaluate:", err)
			os.Exit(1)
		}
	}
	obsRun, err := obsFlags.Setup(*seed, os.Stdout)
	run(err)

	switch {
	case *ablation != "":
		run(harness.Ablation(out, *ablation, cfg))
	case *table == 1:
		rows, err := harness.Table1(cfg)
		run(err)
		run(harness.WriteTable1(out, rows, cfg))
	case *table >= 2 && *table <= 6:
		app, ok := harness.AppForTable(*table)
		if !ok {
			run(fmt.Errorf("no table %d", *table))
		}
		_, err := harness.SiteTable(out, app, cfg)
		run(err)
	case *table != 0:
		run(fmt.Errorf("no table %d (have 1-6)", *table))
	case *figure >= 2 && *figure <= 6:
		app, ok := harness.AppForFigure(*figure)
		if !ok {
			run(fmt.Errorf("no figure %d", *figure))
		}
		_, err := harness.Figure(out, app, cfg)
		run(err)
	case *figure != 0:
		run(fmt.Errorf("no figure %d (have 2-6)", *figure))
	default:
		// Everything: Table I, Tables II-VI, Figures 2-6, ablations.
		// Each artifact's per-app experiments are independent, so they
		// fan out on the -parallel worker pool, rendering into per-task
		// buffers that are flushed in the fixed artifact order.
		rows, err := harness.Table1(cfg)
		run(err)
		run(harness.WriteTable1(out, rows, cfg))
		tasks := make([]func(io.Writer) error, 0, 10+len(harness.AblationNames))
		for t := 2; t <= 6; t++ {
			app, _ := harness.AppForTable(t)
			tasks = append(tasks, func(w io.Writer) error {
				_, err := harness.SiteTable(w, app, cfg)
				return err
			})
		}
		for f := 2; f <= 6; f++ {
			app, _ := harness.AppForFigure(f)
			tasks = append(tasks, func(w io.Writer) error {
				_, err := harness.Figure(w, app, cfg)
				return err
			})
		}
		for _, name := range harness.AblationNames {
			name := name
			tasks = append(tasks, func(w io.Writer) error {
				return harness.Ablation(w, name, cfg)
			})
		}
		bufs := make([]bytes.Buffer, len(tasks))
		run(par.ForError(len(tasks), cfg.Parallelism, func(i int) error {
			return tasks[i](&bufs[i])
		}))
		for i := range bufs {
			fmt.Fprintln(out)
			if _, err := out.Write(bufs[i].Bytes()); err != nil {
				run(err)
			}
		}
	}
	run(obsRun.Finish())
}
