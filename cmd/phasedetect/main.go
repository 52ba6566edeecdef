// Command phasedetect runs the paper's phase analysis (§V) over stored
// IncProf snapshots: difference the cumulative dumps into interval profiles,
// cluster with k-means for k = 1..kmax, select k with the Elbow method, and
// run Algorithm 1 to choose per-phase instrumentation sites.
//
// With -follow it tails the dump directory while the collector is still
// writing, streaming each new snapshot through the incremental engine:
// live phase labels and periodic model refreshes print as "live:"-prefixed
// lines, and the final report is identical to a batch run over the finished
// directory (filter with `grep -v '^live:'` to compare). Both modes run the
// same pipeline.Run; a batch run is a stream that ends.
//
// Input arrives through the profile.Format registry: gmon.out.N dumps
// (canonical, or real GNU gmon.out with symbols.out.N sidecars), gprof.txt.N
// flat profiles, pprof.out.N Go pprof protobufs, or perf.out.N folded
// stacks, chosen with -format or auto-detected from the file names in -dir.
// All formats flow through the same reader, differencer and analysis core,
// in every mode, so the same logical run produces the same report whichever
// profiler captured it.
//
// Usage:
//
//	phasedetect -dir profiles/rank0
//	phasedetect -dir profiles/rank0 -format pprof  # Go pprof protobuf dumps
//	phasedetect -dir profiles/rank0 -format gprof  # parse gprof.txt.N instead
//	phasedetect -dir profiles/rank0 -selection silhouette -threshold 0.9
//	phasedetect -dir profiles/rank0 -follow        # live mode
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/incprof/incprof/internal/callgraph"
	"github.com/incprof/incprof/internal/checkpoint"
	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/fastphase"
	_ "github.com/incprof/incprof/internal/gcov" // register the jacoco frontend
	_ "github.com/incprof/incprof/internal/gmon" // register the gmon frontend
	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/mpi"
	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/obs/obsflag"
	"github.com/incprof/incprof/internal/online"
	_ "github.com/incprof/incprof/internal/perfscript" // register the perf frontend
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/pipeline"
	_ "github.com/incprof/incprof/internal/pprof" // register the pprof frontend
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/report"
	"github.com/incprof/incprof/internal/stream"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: parse and validate args, analyze, print the
// report to stdout. It returns the exit code: 0 on success, 1 when the
// analysis fails, and parseConfig's code for a rejected command line.
func run(args []string, stdout, stderr io.Writer) int {
	c, code := parseConfig(args, stderr)
	if c == nil {
		return code
	}
	// Live lines print from the engine's goroutine when an admission queue
	// runs it, while the tail prints skips and sheds.
	stdout = &syncWriter{w: stdout}
	obsRun, err := c.obs.Setup(c.seed, stdout)
	if err == nil {
		err = c.analyze(stdout, stderr)
		if ferr := obsRun.Finish(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "phasedetect:", err)
		return 1
	}
	return 0
}

// config is one phasedetect command line.
type config struct {
	dir        string
	format     string
	kmax       int
	threshold  float64
	selection  string
	algorithm  string
	seed       uint64
	parallel   int
	includeMPI bool
	fast       bool
	promote    bool
	merge      bool
	salvage    bool
	gap        string
	follow     bool
	followPoll time.Duration
	followIdle time.Duration
	refresh    int
	reorder    int
	ckptDir    string
	ckptEvery  int
	ckptNoSync bool
	resume     bool
	maxPending int
	shed       string
	stall      time.Duration
	obs        *obsflag.Flags
}

var (
	gapPolicies  = map[string]interval.GapPolicy{"split": interval.GapSplit, "drop": interval.GapDrop, "scale": interval.GapScale}
	shedPolicies = map[string]stream.ShedPolicy{"block": stream.ShedBlock, "drop-oldest": stream.ShedDropOldest}
	selections   = map[string]phase.Selection{"elbow": phase.Elbow, "silhouette": phase.Silhouette}
	algorithms   = map[string]phase.Algorithm{"kmeans": phase.KMeansAlg, "dbscan": phase.DBSCANAlg}
)

// parseConfig parses and validates args. A rejected command line is
// reported on stderr and returns a nil config with the exit code: 0 after
// -h, 2 for a malformed command line or an out-of-range value, 1 for flags
// that do not go together.
func parseConfig(args []string, stderr io.Writer) (*config, int) {
	c := &config{}
	fs := flag.NewFlagSet("phasedetect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.dir, "dir", "", "directory holding profile dumps for one rank (gmon.out.N, gprof.txt.N, pprof.out.N, perf.out.N, ...)")
	fs.StringVar(&c.format, "format", "auto", "dump format: auto, "+strings.Join(profile.Names(), ", ")+" (auto detects from the file names in -dir)")
	fs.IntVar(&c.kmax, "kmax", 8, "maximum k for the k-means sweep (at least 1)")
	fs.Float64Var(&c.threshold, "threshold", 0.95, "Algorithm 1 coverage threshold, in (0, 1]")
	fs.StringVar(&c.selection, "selection", "elbow", "k selection: elbow or silhouette")
	fs.StringVar(&c.algorithm, "algorithm", "kmeans", "clustering: kmeans or dbscan")
	fs.Uint64Var(&c.seed, "seed", 1, "clustering seed")
	fs.IntVar(&c.parallel, "parallel", 0, "worker-pool bound for dump decode (batch and -follow) and the k-means sweep; 0 means GOMAXPROCS, 1 forces serial (results are identical either way)")
	fs.BoolVar(&c.includeMPI, "include-mpi", false, "keep MPI pseudo-functions in the feature space")
	fs.BoolVar(&c.fast, "fast", false, "also run fast-phase analysis (call-count loop grouping + periodicity)")
	fs.BoolVar(&c.promote, "promote", false, "apply call-graph site promotion to the selected sites")
	fs.BoolVar(&c.merge, "merge", false, "merge phases with identical site sets")
	fs.BoolVar(&c.salvage, "salvage", false, "degraded mode: skip corrupt/truncated dumps and absorb missing, duplicate, late, or regressed dumps as gaps instead of failing")
	fs.StringVar(&c.gap, "gap", "split", "missing-dump repair policy in salvage mode: split, drop, or scale")
	fs.BoolVar(&c.follow, "follow", false, "tail -dir while the collector is writing: stream dumps through the incremental engine, print live: lines, report when the stream goes idle")
	fs.DurationVar(&c.followPoll, "follow-poll", 200*time.Millisecond, "longest wait between directory checks; on Linux the tail also wakes when a dump lands")
	fs.DurationVar(&c.followIdle, "follow-idle", 2*time.Second, "end -follow mode after this long without a new dump (positive)")
	fs.IntVar(&c.refresh, "refresh", 10, "model refresh cadence (intervals) in -follow mode, checked once per directory scan, so a catch-up over a backlog refreshes once, when it has caught up; a refresh refits the phase model on at most 384 sampled intervals, the final report clusters all of them; 0 refreshes only at the end")
	fs.IntVar(&c.reorder, "reorder", 0, "bounded reorder window for out-of-order dumps in -follow mode; 0 requires in-order arrival")
	fs.StringVar(&c.ckptDir, "checkpoint-dir", "", "durable state directory for -follow: every accepted dump is write-ahead logged and the engine state snapshots every -checkpoint-every dumps, so a killed run resumes with -resume")
	fs.IntVar(&c.ckptEvery, "checkpoint-every", 25, "snapshot cadence in accepted dumps for -checkpoint-dir; 0 takes no periodic snapshot (the WAL alone carries durability)")
	fs.BoolVar(&c.ckptNoSync, "checkpoint-nosync", false, "disable fsync in the checkpoint layer (tests and benchmarks only; crash safety requires sync)")
	fs.BoolVar(&c.resume, "resume", false, "resume from existing state in -checkpoint-dir (refused without this flag, to catch accidental directory reuse)")
	fs.IntVar(&c.maxPending, "max-pending", 0, "bound the queue between the tailer and the engine; 0 feeds the engine directly with no queue")
	fs.StringVar(&c.shed, "shed", "block", "full-queue policy with -max-pending: block (backpressure) or drop-oldest (shed dumps become repaired gaps; requires -salvage)")
	fs.DurationVar(&c.stall, "stall", 0, "watchdog: halt the live pipeline instead of hanging when one engine step exceeds this; 0 disables")
	c.obs = obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2
	}
	if code, err := c.validate(); err != nil {
		fmt.Fprintln(stderr, "phasedetect:", err)
		return nil, code
	}
	return c, 0
}

// validate checks the command line without touching the file system. It
// returns exit code 2 for a missing -dir or a value out of range, 1 for
// flags that do not go together, and 0 with a nil error when c is valid.
func (c *config) validate() (int, error) {
	if c.dir == "" {
		return 2, errors.New("-dir is required")
	}
	if c.kmax < 1 {
		return 2, fmt.Errorf("-kmax must be at least 1 (got %d)", c.kmax)
	}
	if !(c.threshold > 0 && c.threshold <= 1) {
		return 2, fmt.Errorf("-threshold must be in (0, 1] (got %v)", c.threshold)
	}
	for _, f := range []struct {
		name  string
		value int
	}{
		{"-parallel", c.parallel},
		{"-refresh", c.refresh},
		{"-reorder", c.reorder},
		{"-checkpoint-every", c.ckptEvery},
		{"-max-pending", c.maxPending},
	} {
		if f.value < 0 {
			return 2, fmt.Errorf("%s must not be negative (got %d)", f.name, f.value)
		}
	}
	if c.stall < 0 {
		return 2, fmt.Errorf("-stall must not be negative (got %v)", c.stall)
	}
	if c.followPoll <= 0 {
		return 2, fmt.Errorf("-follow-poll must be positive (got %v)", c.followPoll)
	}
	if c.followIdle <= 0 {
		return 2, fmt.Errorf("-follow-idle must be positive (got %v)", c.followIdle)
	}
	if _, ok := profile.Lookup(c.format); !ok && c.format != "auto" {
		return 1, fmt.Errorf("unknown format %q (have auto, %s)", c.format, strings.Join(profile.Names(), ", "))
	}
	if !c.follow {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-reorder", c.reorder > 0},
			{"-checkpoint-dir", c.ckptDir != ""},
			{"-resume", c.resume},
			{"-max-pending", c.maxPending > 0},
			{"-stall", c.stall > 0},
		} {
			if f.set {
				return 1, fmt.Errorf("%s only applies with -follow", f.name)
			}
		}
	}
	shed, ok := shedPolicies[c.shed]
	if !ok {
		return 1, fmt.Errorf("unknown shed policy %q (have block, drop-oldest)", c.shed)
	}
	if shed == stream.ShedDropOldest && !c.salvage {
		return 1, errors.New("-shed drop-oldest requires -salvage: a shed dump surfaces as a gap only the robust differencer can repair")
	}
	if c.resume && c.ckptDir == "" {
		return 1, errors.New("-resume requires -checkpoint-dir")
	}
	if _, ok := gapPolicies[c.gap]; !ok {
		return 1, fmt.Errorf("unknown gap policy %q (have split, drop, scale)", c.gap)
	}
	if _, ok := selections[c.selection]; !ok {
		return 1, fmt.Errorf("unknown selection %q", c.selection)
	}
	if _, ok := algorithms[c.algorithm]; !ok {
		return 1, fmt.Errorf("unknown algorithm %q", c.algorithm)
	}
	return 0, nil
}

// phaseOptions is the detection configuration every mode shares.
func (c *config) phaseOptions(span *obs.Span) phase.Options {
	opts := phase.Options{
		KMax:              c.kmax,
		CoverageThreshold: c.threshold,
		Selection:         selections[c.selection],
		Algorithm:         algorithms[c.algorithm],
		Cluster:           cluster.Options{Seed: c.seed, Parallelism: c.parallel},
		Span:              span,
	}
	if !c.includeMPI {
		opts.Features.Exclude = mpi.IsMPIFunc
	}
	return opts
}

// checkpointConfig fingerprints the analysis options for the checkpoint
// layer: a resume under any differing value would produce a report matching
// neither the old run nor a fresh one, so recovery refuses it.
func (c *config) checkpointConfig(opts phase.Options) checkpoint.Config {
	return checkpoint.Config{
		Seed:              c.seed,
		KMax:              opts.KMax,
		CoverageThreshold: opts.CoverageThreshold,
		Selection:         c.selection,
		Algorithm:         c.algorithm,
		FeatureKind:       opts.Features.Kind.String(),
		ExcludeMPI:        opts.Features.Exclude != nil,
		Robust:            c.salvage,
		GapPolicy:         c.gap,
		Reorder:           c.reorder,
		RefreshEvery:      c.refresh,
	}
}

// analyze runs the analysis through pipeline.Run and prints the report.
func (c *config) analyze(stdout, stderr io.Writer) error {
	root := obs.Start("phasedetect")
	defer root.End()
	popts := c.phaseOptions(root)
	policy := gapPolicies[c.gap]
	printSkip := func(sk incprof.SkippedFile) {
		fmt.Fprintf(stdout, "salvage: skipped %s (seq %d): %v\n", sk.Name, sk.Seq, sk.Err)
	}

	ropts := pipeline.RunOptions{Engine: stream.Options{Robust: c.salvage, Gap: policy, Phase: popts, Span: root}}
	var src pipeline.Source
	if c.follow {
		stop, release := stopOnSignal()
		defer release()
		c.live(&ropts, stdout)
		src = func(sink incprof.Sink, seen func(int) bool) (incprof.TailResult, error) {
			f, _ := profile.Lookup(c.format)
			if c.format == "auto" {
				var err error
				if f, err = waitDetect(c.dir, c.followPoll, c.followIdle, stop); err != nil {
					return incprof.TailResult{}, err
				}
			}
			res, err := incprof.TailDir(c.dir, sink, incprof.TailOptions{
				Format:      f, // nil if the dir stayed empty: tail the canonical layout
				Poll:        c.followPoll,
				Idle:        c.followIdle,
				Salvage:     c.salvage,
				OnSkip:      printSkip,
				Seen:        seen,
				Stop:        stop,
				Parallelism: c.parallel,
			})
			if err == nil && res.Stopped {
				fmt.Fprintln(stdout, "live: stop signal received; finishing with what has been accepted")
			}
			return res, err
		}
	} else {
		f, ok := profile.Lookup(c.format)
		if !ok {
			var err error
			if f, err = profile.DetectDir(c.dir); err != nil {
				return err
			}
		}
		src = func(sink incprof.Sink, seen func(int) bool) (incprof.TailResult, error) {
			return incprof.ReadDir(c.dir, sink, incprof.TailOptions{
				Format:      f,
				Salvage:     c.salvage,
				OnSkip:      printSkip,
				Seen:        seen,
				Parallelism: c.parallel,
			})
		}
	}

	r, err := pipeline.Run(src, ropts)
	switch {
	case errors.Is(err, stream.ErrStalled) && c.ckptDir != "":
		return fmt.Errorf("%w; durable state in %s is current through the WAL, resume with -resume", err, c.ckptDir)
	case errors.Is(err, pipeline.ErrNoSnapshots):
		return fmt.Errorf("no snapshots found in %s", c.dir)
	case err != nil:
		return err
	}
	if c.salvage {
		repaired := 0
		for _, p := range r.Profiles {
			if p.Repaired {
				repaired++
			}
		}
		reportGaps(stdout, r.Gaps, repaired, policy)
	}
	return c.report(stdout, r.Detection, r.Profiles, r.Fed.Last)
}

// live configures the -follow stack: live: lines from the engine's
// callbacks, the checkpoint layer with -checkpoint-dir, and the admission
// queue with -max-pending or -stall.
func (c *config) live(ropts *pipeline.RunOptions, stdout io.Writer) {
	e := &ropts.Engine
	e.Reorder = c.reorder
	e.RefreshEvery = c.refresh
	e.OnLabel = func(ev online.Event) {
		mark := ""
		if ev.NewPhase {
			mark = " (new phase)"
		} else if ev.Transition {
			mark = " (transition)"
		}
		if ev.LowConfidence {
			mark += " (low confidence)"
		}
		fmt.Fprintf(stdout, "live: interval %d -> phase %d%s\n", ev.Interval, ev.Phase, mark)
	}
	e.OnRefresh = func(r stream.Refresh) {
		if r.Final {
			return
		}
		fmt.Fprintf(stdout, "live: refresh %d: k=%d over %d intervals, %d clustered\n", r.Index, r.K, r.Intervals, r.Clustered)
	}
	e.OnGap = func(g interval.Gap) {
		fmt.Fprintf(stdout, "live: gap %s seq %d..%d (%d missing)\n", g.Kind, g.FromSeq, g.ToSeq, g.Missing)
	}
	if c.ckptDir != "" {
		ropts.Durable = &pipeline.Durable{
			Dir:    c.ckptDir,
			Every:  c.ckptEvery,
			NoSync: c.ckptNoSync,
			Resume: c.resume,
			Config: c.checkpointConfig(e.Phase),
			OnRecover: func(rec *checkpoint.Recovery, replayed int) {
				for _, skip := range rec.Skipped {
					fmt.Fprintf(stdout, "live: resume: skipped invalid snapshot: %s\n", skip)
				}
				if rec.TornWAL {
					fmt.Fprintln(stdout, "live: resume: WAL tail was torn; truncated to the last valid record")
				}
				if c.resume {
					from := 0
					if rec.Snapshot != nil {
						from = rec.Snapshot.Accepted
					}
					fmt.Fprintf(stdout, "live: resume: snapshot at %d accepted dumps, %d WAL records replayed\n", from, replayed)
				}
			},
		}
	}
	shed := shedPolicies[c.shed]
	if c.maxPending > 0 || c.stall > 0 {
		ropts.Admission = &stream.AdmissionOptions{MaxPending: c.maxPending, Policy: shed, Stall: c.stall,
			OnShed: func(s *profile.Sample) error {
				fmt.Fprintf(stdout, "live: shed seq %d (queue full)\n", s.Seq)
				return nil
			}}
	}
	ropts.OnDrained = func(fed incprof.TailResult, n int) {
		if n > 0 {
			fmt.Fprintf(stdout, "live: %d dumps shed under overload (%s policy)\n", n, shed)
		}
		if fed.Stopped && c.ckptDir != "" {
			fmt.Fprintf(stdout, "live: state saved to %s; resume with -resume\n", c.ckptDir)
		}
	}
}

// stopOnSignal turns the first SIGTERM or SIGINT into a closed stop channel,
// so -follow ends gracefully: stop ingesting, snapshot the engine state,
// flush the report. A second signal kills as usual. release uninstalls the
// handler.
func stopOnSignal() (stop <-chan struct{}, release func()) {
	ch := make(chan struct{})
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			close(ch)
		case <-done:
		}
		signal.Stop(sig)
	}()
	return ch, func() { close(done) }
}

// waitDetect resolves -format auto under -follow: poll the directory until
// the first dump appears and names its format. A directory that stays empty
// through the idle window or a stop signal yields (nil, nil) — the tail then
// runs against the canonical layout and the normal no-snapshots / resumed-
// idle handling applies. A mixed-format directory fails immediately.
func waitDetect(dir string, poll, idle time.Duration, stop <-chan struct{}) (*profile.Format, error) {
	deadline := time.Now().Add(idle)
	for {
		f, err := profile.DetectDir(dir)
		if err == nil {
			return f, nil
		}
		if !errors.Is(err, profile.ErrNoDumps) {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, nil
		}
		select {
		case <-stop:
			return nil, nil
		case <-time.After(poll):
		}
	}
}

// reportGaps prints the salvage-mode gap summary.
func reportGaps(w io.Writer, gaps []interval.Gap, repaired int, policy interval.GapPolicy) {
	for _, g := range gaps {
		fmt.Fprintf(w, "gap: %s seq %d..%d (%d missing)\n", g.Kind, g.FromSeq, g.ToSeq, g.Missing)
	}
	if repaired > 0 {
		fmt.Fprintf(w, "salvage: %d gaps, %d repaired intervals (%s policy)\n", len(gaps), repaired, policy)
	}
}

// report prints the detection: optional promotion and merging, the phase
// and site table, the timeline, and the optional fast-phase and streaming
// tracker sections. last is the final snapshot ingested, nil when a resumed
// run saw no new dump.
func (c *config) report(w io.Writer, det *phase.Detection, profiles []interval.Row, last *profile.Sample) error {
	promote := c.promote
	if promote && last == nil {
		fmt.Fprintln(w, "call-graph promotion skipped: no snapshot ingested this run")
		promote = false
	}
	if promote {
		g := callgraph.FromSnapshot(last)
		n := callgraph.PromoteDetection(det, g, callgraph.PromoteOptions{Exclude: mpi.IsMPIFunc})
		fmt.Fprintf(w, "call-graph promotion changed %d sites\n", n)
	}
	if c.merge {
		if n := det.MergeDuplicatePhases(); n > 0 {
			fmt.Fprintf(w, "merged %d duplicate phases\n", n)
		}
	}

	fmt.Fprintf(w, "%d intervals, %d feature dimensions, %d phases (%s/%s)\n",
		len(profiles), det.Matrix.Dims(), len(det.Phases), c.algorithm, c.selection)
	if len(det.WCSS) > 0 {
		fmt.Fprint(w, "WCSS sweep:")
		for k, wcss := range det.WCSS {
			fmt.Fprintf(w, " k%d=%.3g", k+1, wcss)
		}
		fmt.Fprintln(w)
	}
	if len(det.NoiseIntervals) > 0 {
		fmt.Fprintf(w, "DBSCAN noise intervals: %v\n", det.NoiseIntervals)
	}

	tb := report.NewTable("Phases and instrumentation sites (Algorithm 1)",
		"Phase ID", "Intervals", "Span", "Site Function", "Phase %", "App %", "Inst. Type")
	for _, p := range det.Phases {
		span := fmt.Sprintf("%d..%d", p.Intervals[0], p.Intervals[len(p.Intervals)-1])
		dur := p.Duration(time.Second)
		for i, s := range p.Sites {
			id, count, spanCell := "", "", ""
			if i == 0 {
				id = fmt.Sprint(p.ID)
				count = fmt.Sprintf("%d (%s)", len(p.Intervals), dur)
				spanCell = span
			}
			tb.AddRow(id, count, spanCell,
				s.Function,
				fmt.Sprintf("%.1f", s.PhasePct),
				fmt.Sprintf("%.1f", s.AppPct),
				s.Type.String(),
			)
		}
		if len(p.Sites) == 0 {
			tb.AddRow(fmt.Sprint(p.ID), fmt.Sprint(len(p.Intervals)), span, "(none)", "", "", "")
		}
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	assign := make([]int, len(profiles))
	for i := range assign {
		assign[i] = -1
	}
	for _, p := range det.Phases {
		for _, idx := range p.Intervals {
			assign[idx] = p.ID
		}
	}
	fmt.Fprintln(w)
	if err := report.RenderPhaseTimeline(w, "Phase timeline:", assign, 100); err != nil {
		return err
	}

	if c.fast {
		res := fastphase.Analyze(interval.Profiles(profiles), fastphase.Options{Exclude: mpi.IsMPIFunc})
		fmt.Fprintln(w)
		ft := report.NewTable("Fast-phase analysis (call-count loop groups)",
			"Group", "Function", "Loop rate (iters/interval)")
		for i, g := range res.Groups {
			for j, fn := range g.Functions {
				id, rate := "", ""
				if j == 0 {
					id = fmt.Sprint(i)
					rate = fmt.Sprintf("%.2f", g.RatePerInterval)
				}
				ft.AddRow(id, fn, rate)
			}
		}
		if err := ft.Render(w); err != nil {
			return err
		}
		pt := report.NewTable("Periodicities (autocorrelation peaks)",
			"Function", "Period (intervals)", "Strength")
		for _, p := range res.Periodicities {
			pt.AddRow(p.Function, fmt.Sprint(p.Period), fmt.Sprintf("%.2f", p.Strength))
		}
		fmt.Fprintln(w)
		if err := pt.Render(w); err != nil {
			return err
		}
	}

	return nil
}

// syncWriter serializes writes to w.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
