// Phasepipeline runs the paper's full workflow on one evaluation
// application (Graph500 by default): uninstrumented baseline, IncProf
// collection, phase detection with Algorithm 1 site selection, then a
// heartbeat-instrumented re-run — and prints the site table and heartbeat
// figure for it.
//
//	go run ./examples/phasepipeline
//	go run ./examples/phasepipeline -app minife -scale 0.25
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/incprof/incprof/internal/harness"
	"github.com/incprof/incprof/internal/pipeline"

	_ "github.com/incprof/incprof/internal/apps/gadget"
	_ "github.com/incprof/incprof/internal/apps/graph500"
	_ "github.com/incprof/incprof/internal/apps/lammps"
	_ "github.com/incprof/incprof/internal/apps/miniamr"
	_ "github.com/incprof/incprof/internal/apps/minife"
)

func main() {
	appName := flag.String("app", "graph500", "application: gadget, graph500, lammps, miniamr, minife")
	scale := flag.Float64("scale", 0.5, "application scale in (0, 1]")
	flag.Parse()

	cfg := harness.Config{Scale: *scale, Width: 100, Seed: 1}

	// The harness builds the Table II-VI analog (with the paper's rows
	// for comparison) and the Figure 2-6 analog.
	res, err := harness.SiteTable(os.Stdout, *appName, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndetected %d phases; coverage threshold %.0f%%\n\n",
		res.K, res.Experiment.Analysis.Detection.Options.CoverageThreshold*100)

	if _, err := harness.Figure(os.Stdout, *appName, cfg); err != nil {
		log.Fatal(err)
	}

	// Overhead summary for this app, as Table I reports it.
	fmt.Printf("\nIncProf overhead (modeled): %.1f%% — %d dumps, %d samples, %d calls over %s\n",
		pipeline.IncProfOverheadPct(res.Experiment.Profiled),
		res.Experiment.Profiled.RepDumps,
		res.Experiment.Profiled.RepSamples,
		res.Experiment.Profiled.RepCalls,
		res.Experiment.Profiled.VirtualRuntime)
}
