// Command appekg runs one of the evaluation applications with AppEKG
// heartbeat instrumentation (paper §III) and emits the per-interval
// heartbeat records as CSV.
//
// Sites come from one of three sources:
//
//	-manual            the application's hand-picked "best" sites
//	-discover          run IncProf + phase detection first, then
//	                   instrument the discovered sites (the full paper
//	                   workflow in one command)
//	-sites fn:type:id,...   an explicit list, e.g. "cg_solve:loop:1"
//
// Usage:
//
//	appekg -app minife -discover -csv minife_hb.csv
//	appekg -app lammps -manual
//	appekg -app graph500 -sites run_bfs:body:1,validate_bfs_result:loop:2
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/incprof/incprof/internal/apps"
	"github.com/incprof/incprof/internal/hbanalysis"
	"github.com/incprof/incprof/internal/heartbeat"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/pipeline"
	"github.com/incprof/incprof/internal/report"

	_ "github.com/incprof/incprof/internal/apps/allocgc"
	_ "github.com/incprof/incprof/internal/apps/gadget"
	_ "github.com/incprof/incprof/internal/apps/graph500"
	_ "github.com/incprof/incprof/internal/apps/lammps"
	_ "github.com/incprof/incprof/internal/apps/microsvc"
	_ "github.com/incprof/incprof/internal/apps/miniamr"
	_ "github.com/incprof/incprof/internal/apps/minife"
)

func main() {
	appName := flag.String("app", "", "application to run: "+strings.Join(apps.Names(), ", "))
	scale := flag.Float64("scale", 1.0, "application scale in (0, 1]")
	manual := flag.Bool("manual", false, "instrument the manual 'best' sites")
	discover := flag.Bool("discover", false, "run IncProf + phase detection, then instrument the discovered sites")
	sitesFlag := flag.String("sites", "", "explicit sites: fn:body|loop:id[,...]")
	csvPath := flag.String("csv", "", "write heartbeat CSV here (default stdout)")
	analyze := flag.Bool("analyze", false, "print per-heartbeat summary statistics after the run")
	jsonOut := flag.Bool("json", false, "emit newline-delimited JSON records instead of CSV")
	baseline := flag.String("baseline", "", "comma-separated JSONL record files of healthy runs (enables check mode)")
	check := flag.String("check", "", "JSONL record file to check against -baseline (no app run)")
	flag.Parse()

	if *baseline != "" || *check != "" {
		if *baseline == "" || *check == "" {
			fmt.Fprintln(os.Stderr, "appekg: check mode needs both -baseline and -check")
			os.Exit(2)
		}
		runCheck(*baseline, *check)
		return
	}

	if *appName == "" {
		fmt.Fprintln(os.Stderr, "appekg: -app is required; choices:", strings.Join(apps.Names(), ", "))
		os.Exit(2)
	}
	app, err := apps.New(*appName, *scale)
	fail(err)

	var sites []heartbeat.SiteSpec
	switch {
	case *sitesFlag != "":
		sites, err = parseSites(*sitesFlag)
		fail(err)
	case *manual:
		sites = app.ManualSites()
	case *discover:
		res, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true})
		fail(err)
		an, err := pipeline.Analyze(res, pipeline.AnalyzeOptions{})
		fail(err)
		sites = heartbeat.SitesFromDetection(an.Detection)
		fmt.Fprintf(os.Stderr, "appekg: discovered %d phases, %d sites\n",
			len(an.Detection.Phases), len(sites))
	default:
		fmt.Fprintln(os.Stderr, "appekg: pick one of -manual, -discover, or -sites")
		os.Exit(2)
	}
	for _, s := range sites {
		fmt.Fprintf(os.Stderr, "appekg: HB%d = %s (%s)\n", s.ID, s.Function, s.Type)
	}

	hb, err := pipeline.RunWithHeartbeats(app, sites)
	fail(err)

	out := os.Stdout
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		fail(err)
		defer f.Close()
		out = f
	}
	var sink heartbeat.Sink = heartbeat.NewCSVSink(out)
	if *jsonOut {
		sink = heartbeat.NewJSONSink(out)
	}
	fail(sink.Emit(hb.Records))
	fmt.Fprintf(os.Stderr, "appekg: %s ran %s of virtual time; %d records from rank 0\n",
		app.Name(), hb.VirtualRuntime, len(hb.Records))

	if *analyze {
		names := make(map[heartbeat.ID]string)
		for _, s := range sites {
			names[s.ID] = fmt.Sprintf("%s/%s", s.Function, s.Type)
		}
		tb := report.NewTable("Heartbeat summary (rank 0)",
			"HB", "Site", "Active intervals", "Beats", "Rate mean±sd", "Duration mean±sd (s)")
		for _, s := range hbanalysis.Summarize(hb.Records, func(id heartbeat.ID) string { return names[id] }) {
			tb.AddRow(
				fmt.Sprint(s.HB), s.Name,
				fmt.Sprint(s.ActiveIntervals),
				fmt.Sprint(s.TotalBeats),
				fmt.Sprintf("%.2f±%.2f", s.Rate.Mean(), s.Rate.Stddev()),
				fmt.Sprintf("%.4f±%.4f", s.Duration.Mean(), s.Duration.Stddev()),
			)
		}
		fail(tb.Render(os.Stderr))
	}
}

// parseSites parses "fn:body|loop:id[,...]".
func parseSites(s string) ([]heartbeat.SiteSpec, error) {
	var out []heartbeat.SiteSpec
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("appekg: bad site %q, want fn:body|loop:id", part)
		}
		var ty phase.InstType
		switch fields[1] {
		case "body":
			ty = phase.Body
		case "loop":
			ty = phase.Loop
		default:
			return nil, fmt.Errorf("appekg: bad instrumentation type %q", fields[1])
		}
		id, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("appekg: bad heartbeat id %q", fields[2])
		}
		out = append(out, heartbeat.SiteSpec{Function: fields[0], Type: ty, ID: heartbeat.ID(id)})
	}
	return out, nil
}

// runCheck builds a heartbeat baseline from healthy-run record files and
// flags deviations in the checked run — the paper's "identify when the
// application is running poorly" workflow over recorded AppEKG data.
func runCheck(baselineList, checkPath string) {
	var refs [][]heartbeat.Record
	for _, path := range strings.Split(baselineList, ",") {
		recs, err := readRecords(path)
		fail(err)
		refs = append(refs, recs)
	}
	b, err := hbanalysis.NewBaseline(refs...)
	fail(err)
	run, err := readRecords(checkPath)
	fail(err)
	anoms := b.Check(run)
	fmt.Printf("baseline: %d runs; checked run: %d records; slowdown factor %.3f\n",
		b.Runs(), len(run), b.SlowdownFactor(run))
	if len(anoms) == 0 {
		fmt.Println("no anomalies")
		return
	}
	fmt.Printf("%d anomalies:\n", len(anoms))
	for _, a := range anoms {
		fmt.Println("  " + hbanalysis.FormatAnomaly(a))
	}
}

func readRecords(path string) ([]heartbeat.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return heartbeat.ParseJSONRecords(f)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "appekg:", err)
		os.Exit(1)
	}
}
