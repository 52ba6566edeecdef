package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/incprof/incprof/internal/apps"
	"github.com/incprof/incprof/internal/heartbeat"
	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/par"
	"github.com/incprof/incprof/internal/pipeline"
	"github.com/incprof/incprof/internal/report"

	// The harness evaluates the paper's full application suite; importing
	// the packages registers them with the apps registry.
	_ "github.com/incprof/incprof/internal/apps/gadget"
	_ "github.com/incprof/incprof/internal/apps/graph500"
	_ "github.com/incprof/incprof/internal/apps/lammps"
	_ "github.com/incprof/incprof/internal/apps/miniamr"
	_ "github.com/incprof/incprof/internal/apps/minife"
)

// Config controls experiment scale and presentation.
type Config struct {
	// Scale in (0, 1] shrinks the applications; 1.0 is paper scale.
	Scale float64
	// Width is the ASCII figure width in columns (0 means 100).
	Width int
	// Seed feeds the clustering.
	Seed uint64
	// Parallelism bounds the analysis worker pools and the per-app
	// fan-out of Table1; 0 means GOMAXPROCS, 1 forces serial. Results
	// are identical for every value given the same Seed.
	Parallelism int
	// CSVDir, when set, receives per-figure CSV files
	// (figureN_app_variant_counts.csv / _durations.csv) alongside the
	// ASCII rendering, for external plotting.
	CSVDir string
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Width == 0 {
		c.Width = 100
	}
	return c
}

// Table1Row is one application's measured Table I entries. The overhead
// columns come from the priced instrumentation events
// (pipeline.IncProfOverheadPct, pipeline.HeartbeatOverheadPct); the raw host
// wall-clock durations of each run are retained for the record.
type Table1Row struct {
	App              string
	Procs, Nodes     int
	UninstrRuntime   time.Duration // virtual
	IncProfOvhdPct   float64       // modeled: priced profiling events / runtime
	HeartbeatOvhdPct float64       // modeled: priced heartbeat events / runtime
	PhasesDiscovered int

	BaselineHost  time.Duration
	ProfiledHost  time.Duration
	HeartbeatHost time.Duration
}

// Table1 runs the full pipeline for every application and returns the
// measured Table I rows in the paper's order. The five experiments are
// independent, so they fan out on a worker pool bounded by
// Config.Parallelism; rows are written by application index, keeping the
// output order (and, for a fixed Seed, every measured value except host
// wall-clock durations) identical to a serial run.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	order := []string{"graph500", "minife", "miniamr", "lammps", "gadget"}
	sp := obs.Start("harness.table1")
	sp.SetInt("apps", int64(len(order)))
	defer sp.End()
	rows := make([]Table1Row, len(order))
	err := par.ForError(len(order), cfg.Parallelism, func(i int) error {
		name := order[i]
		app, err := apps.New(name, cfg.Scale)
		if err != nil {
			return err
		}
		// Keyed by the app name, not the completion order, so the trace is
		// identical at any Parallelism.
		appSp := sp.ChildKey("harness.app", obs.KeyString(name))
		appSp.SetStr("app", name)
		defer appSp.End()
		e, err := pipeline.RunExperiment(app, experimentOptions(cfg, appSp))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m := app.Meta()
		rows[i] = Table1Row{
			App:              name,
			Procs:            m.Ranks,
			Nodes:            m.PaperNodes,
			UninstrRuntime:   e.Baseline.VirtualRuntime,
			IncProfOvhdPct:   pipeline.IncProfOverheadPct(e.Profiled),
			HeartbeatOvhdPct: pipeline.HeartbeatOverheadPct(e.Manual),
			PhasesDiscovered: len(e.Analysis.Detection.Phases),
			BaselineHost:     e.Baseline.HostDuration,
			ProfiledHost:     e.Profiled.HostDuration,
			HeartbeatHost:    e.Manual.HostDuration,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func experimentOptions(cfg Config, span *obs.Span) pipeline.ExperimentOptions {
	opts := pipeline.ExperimentOptions{}
	opts.Analyze.Phase.Cluster.Seed = cfg.Seed
	opts.Analyze.Parallelism = cfg.Parallelism
	opts.Analyze.Span = span
	opts.Collect.Span = span
	return opts
}

// WriteTable1 renders the measured rows beside the paper's Table I values.
func WriteTable1(w io.Writer, rows []Table1Row, cfg Config) error {
	cfg = cfg.withDefaults()
	tb := report.NewTable(
		fmt.Sprintf("TABLE I — Experimental Overview: Setup & Overhead (scale=%.2f; paper values in parentheses)", cfg.Scale),
		"App", "Procs/Nodes", "Uninstr Runtime (s)", "IncProf Ovhd (%)", "Heartbeat Ovhd (%)", "# Phases Discov.")
	for _, r := range rows {
		app, err := apps.New(r.App, cfg.Scale)
		if err != nil {
			return err
		}
		m := app.Meta()
		tb.AddRow(
			r.App,
			fmt.Sprintf("%d / %d", r.Procs, m.PaperNodes),
			fmt.Sprintf("%.0f (%.0f)", r.UninstrRuntime.Seconds(), m.PaperRuntimeSec),
			fmt.Sprintf("%.1f (%.1f)", r.IncProfOvhdPct, m.PaperIncProfOvhdPct),
			fmt.Sprintf("%.1f (%.1f)", r.HeartbeatOvhdPct, m.PaperHeartbeatOvhdPct),
			fmt.Sprintf("%d (%d)", r.PhasesDiscovered, m.PaperPhases),
		)
	}
	return tb.Render(w)
}

// SiteTableResult carries a site table's underlying data for assertions.
type SiteTableResult struct {
	App        string
	K          int
	Experiment *pipeline.Experiment
}

// SiteTable runs the pipeline for one application and writes the Table
// II-VI analog: measured phases and sites, the paper's rows, and the manual
// instrumentation sites.
func SiteTable(w io.Writer, appName string, cfg Config) (*SiteTableResult, error) {
	cfg = cfg.withDefaults()
	app, err := apps.New(appName, cfg.Scale)
	if err != nil {
		return nil, err
	}
	sp := obs.StartKey("harness.sitetable", obs.KeyString(appName))
	sp.SetStr("app", appName)
	defer sp.End()
	opts := experimentOptions(cfg, sp)
	opts.SkipBaseline = true
	opts.SkipManual = true
	e, err := pipeline.RunExperiment(app, opts)
	if err != nil {
		return nil, err
	}
	det := e.Analysis.Detection
	specs := heartbeat.SitesFromDetection(det)
	hbID := func(fn string, inst string) int {
		for _, s := range specs {
			if s.Function == fn && s.Type.String() == inst {
				return int(s.ID)
			}
		}
		return 0
	}

	tb := report.NewTable(
		fmt.Sprintf("TABLE %d analog — %s instrumented functions (measured, scale=%.2f)", TableNumber[appName], appName, cfg.Scale),
		"Phase ID", "HB ID", "Discovered Site Function", "Phase %", "App %", "Inst. Type")
	for _, p := range det.Phases {
		for _, s := range p.Sites {
			tb.AddRow(
				fmt.Sprint(p.ID),
				fmt.Sprint(hbID(s.Function, s.Type.String())),
				s.Function,
				fmt.Sprintf("%.1f", s.PhasePct),
				fmt.Sprintf("%.1f", s.AppPct),
				s.Type.String(),
			)
		}
	}
	if err := tb.Render(w); err != nil {
		return nil, err
	}

	ref := report.NewTable(
		fmt.Sprintf("Paper Table %d reference (discovered sites)", TableNumber[appName]),
		"Phase ID", "HB ID", "Function", "Phase %", "App %", "Inst. Type")
	for _, s := range PaperSites[appName] {
		ref.AddRow(fmt.Sprint(s.Phase), fmt.Sprint(s.HB), s.Function,
			fmt.Sprintf("%.1f", s.PhasePct), fmt.Sprintf("%.1f", s.AppPct), s.Inst)
	}
	fmt.Fprintln(w)
	if err := ref.Render(w); err != nil {
		return nil, err
	}

	man := report.NewTable("Manual instrumentation sites", "Function", "Inst. Type")
	for _, s := range app.ManualSites() {
		man.AddRow(s.Function, s.Type.String())
	}
	fmt.Fprintln(w)
	if err := man.Render(w); err != nil {
		return nil, err
	}

	// One-row phase timeline: where each phase lives in the run.
	assign := make([]int, len(e.Analysis.Profiles))
	for i := range assign {
		assign[i] = -1
	}
	for _, p := range det.Phases {
		for _, idx := range p.Intervals {
			assign[idx] = p.ID
		}
	}
	fmt.Fprintln(w)
	if err := report.RenderPhaseTimeline(w, "Phase timeline (one glyph per interval bucket):", assign, cfg.Width); err != nil {
		return nil, err
	}
	return &SiteTableResult{App: appName, K: det.K, Experiment: e}, nil
}

// FigureResult carries a heartbeat figure's series for assertions.
type FigureResult struct {
	App        string
	Discovered []report.Series // per-HB mean duration series
	Manual     []report.Series
	Intervals  int
}

// Figure runs the discovered-site and manual-site heartbeat experiments for
// one application and renders the Figure 2-6 analog: per-heartbeat interval
// series (counts and mean durations) as ASCII plots.
func Figure(w io.Writer, appName string, cfg Config) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	app, err := apps.New(appName, cfg.Scale)
	if err != nil {
		return nil, err
	}
	sp := obs.StartKey("harness.figure", obs.KeyString(appName))
	sp.SetStr("app", appName)
	defer sp.End()
	opts := experimentOptions(cfg, sp)
	opts.SkipBaseline = true
	e, err := pipeline.RunExperiment(app, opts)
	if err != nil {
		return nil, err
	}
	res := &FigureResult{App: appName}

	render := func(title, variant string, hb *pipeline.HeartbeatResult, ekgNames map[heartbeat.ID]string) ([]report.Series, error) {
		intervals := int(hb.VirtualRuntime/time.Second) + 1
		if intervals > res.Intervals {
			res.Intervals = intervals
		}
		counts, durs := seriesFromRecords(hb.Records, intervals, ekgNames)
		fmt.Fprintf(w, "\n%s\n", title)
		if err := report.RenderASCIISeries(w, "heartbeat counts per interval:", counts, cfg.Width); err != nil {
			return nil, err
		}
		if err := report.RenderASCIISeries(w, "mean heartbeat duration per interval (s):", durs, cfg.Width); err != nil {
			return nil, err
		}
		if cfg.CSVDir != "" {
			base := fmt.Sprintf("figure%d_%s_%s", FigureNumber[appName], appName, variant)
			if err := writeSeriesFile(cfg.CSVDir, base+"_counts.csv", counts); err != nil {
				return nil, err
			}
			if err := writeSeriesFile(cfg.CSVDir, base+"_durations.csv", durs); err != nil {
				return nil, err
			}
		}
		return durs, nil
	}

	discNames := make(map[heartbeat.ID]string)
	for _, s := range e.Discovered.Sites {
		discNames[s.ID] = fmt.Sprintf("HB%d %s/%s", s.ID, s.Function, s.Type)
	}
	if res.Discovered, err = render(
		fmt.Sprintf("Figure %d analog — %s discovered-site heartbeats (scale=%.2f)", FigureNumber[appName], appName, cfg.Scale),
		"discovered", e.Discovered, discNames); err != nil {
		return nil, err
	}
	manNames := make(map[heartbeat.ID]string)
	for _, s := range e.Manual.Sites {
		manNames[s.ID] = fmt.Sprintf("HB%d %s/%s", s.ID, s.Function, s.Type)
	}
	if res.Manual, err = render(
		fmt.Sprintf("Figure %d analog — %s manual-site heartbeats", FigureNumber[appName], appName),
		"manual", e.Manual, manNames); err != nil {
		return nil, err
	}
	return res, nil
}

// writeSeriesFile writes one series CSV under dir, creating it if needed.
func writeSeriesFile(dir, name string, series []report.Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := report.WriteSeriesCSV(f, series); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seriesFromRecords densifies heartbeat records into per-interval count and
// mean-duration series, one per heartbeat ID.
func seriesFromRecords(recs []heartbeat.Record, intervals int, names map[heartbeat.ID]string) (counts, durs []report.Series) {
	ids := make(map[heartbeat.ID]bool)
	for _, r := range recs {
		ids[r.HB] = true
	}
	ordered := make([]heartbeat.ID, 0, len(ids))
	for id := range ids {
		ordered = append(ordered, id)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, id := range ordered {
		name := names[id]
		if name == "" {
			name = fmt.Sprintf("HB%d", id)
		}
		c := report.Series{Name: name, Values: make([]float64, intervals)}
		d := report.Series{Name: name, Values: make([]float64, intervals)}
		for _, r := range recs {
			if r.HB != id || r.Interval >= intervals {
				continue
			}
			c.Values[r.Interval] = float64(r.Count)
			d.Values[r.Interval] = r.MeanDuration.Seconds()
		}
		counts = append(counts, c)
		durs = append(durs, d)
	}
	return counts, durs
}
