// Command phasedetect runs the paper's phase analysis (§V) over stored
// IncProf snapshots: difference the cumulative dumps into interval profiles,
// cluster with k-means for k = 1..kmax, select k with the Elbow method, and
// run Algorithm 1 to choose per-phase instrumentation sites.
//
// With -follow it tails the dump directory while the collector is still
// writing, streaming each new snapshot through the incremental engine:
// live phase labels and periodic model refreshes print as "live:"-prefixed
// lines, and the final report is identical to a batch run over the finished
// directory (filter with `grep -v '^live:'` to compare).
//
// Input arrives through the profile.Format registry: gmon.out.N canonical
// dumps, pprof.out.N Go pprof protobufs, or perf.out.N folded stacks, chosen
// with -format or auto-detected from the file names in -dir. All formats
// flow through the same differencer and analysis core, so the same logical
// run produces the same report whichever profiler captured it.
//
// Usage:
//
//	phasedetect -dir profiles/rank0
//	phasedetect -dir profiles/rank0 -format pprof  # Go pprof protobuf dumps
//	phasedetect -dir profiles/rank0 -text          # parse gprof.txt.N instead
//	phasedetect -dir profiles/rank0 -selection silhouette -threshold 0.9
//	phasedetect -dir profiles/rank0 -follow        # live mode
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
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
	_ "github.com/incprof/incprof/internal/pprof" // register the pprof frontend
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/report"
	"github.com/incprof/incprof/internal/stream"
)

func main() {
	dir := flag.String("dir", "", "directory holding profile dumps for one rank (gmon.out.N, pprof.out.N, or perf.out.N)")
	formatFlag := flag.String("format", "auto", "dump format: auto, "+strings.Join(profile.Names(), ", ")+" (auto detects from the file names in -dir)")
	text := flag.Bool("text", false, "ingest gprof.txt.N flat-profile text instead of binary dumps")
	gmonout := flag.Bool("gmonout", false, "ingest real-format gmon.out.N dumps (with symbols.out.N sidecars)")
	kmax := flag.Int("kmax", 8, "maximum k for the k-means sweep")
	threshold := flag.Float64("threshold", 0.95, "Algorithm 1 coverage threshold")
	selection := flag.String("selection", "elbow", "k selection: elbow or silhouette")
	algorithm := flag.String("algorithm", "kmeans", "clustering: kmeans or dbscan")
	seed := flag.Uint64("seed", 1, "clustering seed")
	parallel := flag.Int("parallel", 0, "worker-pool bound for dump load, differencing and the k-means sweep; 0 means GOMAXPROCS, 1 forces serial (results are identical either way)")
	includeMPI := flag.Bool("include-mpi", false, "keep MPI pseudo-functions in the feature space")
	fast := flag.Bool("fast", false, "also run fast-phase analysis (call-count loop grouping + periodicity)")
	onlineFlag := flag.Bool("online", false, "also replay the intervals through the streaming phase tracker")
	promote := flag.Bool("promote", false, "apply call-graph site promotion to the selected sites")
	merge := flag.Bool("merge", false, "merge phases with identical site sets")
	salvage := flag.Bool("salvage", false, "degraded mode: skip corrupt/truncated dumps and absorb missing, duplicate, late, or regressed dumps as gaps instead of failing")
	gapPolicy := flag.String("gap", "split", "missing-dump repair policy in salvage mode: split, drop, or scale")
	follow := flag.Bool("follow", false, "tail -dir while the collector is writing: stream dumps through the incremental engine, print live: lines, report when the stream goes idle")
	followPoll := flag.Duration("follow-poll", 200*time.Millisecond, "directory poll interval in -follow mode")
	followIdle := flag.Duration("follow-idle", 2*time.Second, "end -follow mode after this long without a new dump")
	refreshEvery := flag.Int("refresh", 10, "full model refresh cadence (intervals) in -follow mode")
	reorder := flag.Int("reorder", 0, "bounded reorder window for out-of-order dumps in -follow mode; 0 requires in-order arrival")
	ckptDir := flag.String("checkpoint-dir", "", "durable state directory for -follow: every accepted dump is write-ahead logged and the engine state snapshots every -checkpoint-every dumps, so a killed run resumes with -resume")
	ckptEvery := flag.Int("checkpoint-every", 25, "snapshot cadence in accepted dumps for -checkpoint-dir")
	ckptNoSync := flag.Bool("checkpoint-nosync", false, "disable fsync in the checkpoint layer (tests and benchmarks only; crash safety requires sync)")
	resume := flag.Bool("resume", false, "resume from existing state in -checkpoint-dir (refused without this flag, to catch accidental directory reuse)")
	maxPending := flag.Int("max-pending", 0, "bound the queue between the tailer and the engine; 0 feeds the engine directly with no queue")
	shedFlag := flag.String("shed", "block", "full-queue policy with -max-pending: block (backpressure) or drop-oldest (shed dumps become repaired gaps; requires -salvage)")
	stall := flag.Duration("stall", 0, "watchdog: halt the live pipeline instead of hanging when one engine step exceeds this; 0 disables")
	obsFlags := obsflag.Register()
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "phasedetect: -dir is required")
		os.Exit(2)
	}
	if *follow && (*text || *gmonout) {
		fail(fmt.Errorf("-follow tails registry-format dumps only (no -text / -gmonout)"))
	}
	var ffmt *profile.Format
	switch {
	case *text || *gmonout:
		if *formatFlag != "auto" && *formatFlag != "gmon" {
			fail(fmt.Errorf("-text and -gmonout are gprof-family inputs and cannot combine with -format %s", *formatFlag))
		}
	case *formatFlag == "auto":
		// Batch mode detects now; -follow detects lazily inside followDir,
		// because the directory may still be empty when the tail starts.
		if !*follow {
			f, derr := profile.DetectDir(*dir)
			fail(derr)
			ffmt = f
		}
	default:
		f, ok := profile.Lookup(*formatFlag)
		if !ok {
			fail(fmt.Errorf("unknown format %q (have auto, %s)", *formatFlag, strings.Join(profile.Names(), ", ")))
		}
		ffmt = f
	}
	if !*follow {
		for name, set := range map[string]bool{
			"-checkpoint-dir": *ckptDir != "",
			"-resume":         *resume,
			"-max-pending":    *maxPending > 0,
			"-stall":          *stall > 0,
			"-reorder":        *reorder > 0,
		} {
			if set {
				fail(fmt.Errorf("%s only applies with -follow", name))
			}
		}
	}
	var shed stream.ShedPolicy
	switch *shedFlag {
	case "block":
		shed = stream.ShedBlock
	case "drop-oldest":
		shed = stream.ShedDropOldest
		if !*salvage {
			fail(fmt.Errorf("-shed drop-oldest requires -salvage: a shed dump surfaces as a gap only the robust differencer can repair"))
		}
	default:
		fail(fmt.Errorf("unknown shed policy %q (have block, drop-oldest)", *shedFlag))
	}
	if *resume && *ckptDir == "" {
		fail(fmt.Errorf("-resume requires -checkpoint-dir"))
	}
	obsRun, err := obsFlags.Setup(*seed)
	fail(err)
	var policy interval.GapPolicy
	switch *gapPolicy {
	case "split":
		policy = interval.GapSplit
	case "drop":
		policy = interval.GapDrop
	case "scale":
		policy = interval.GapScale
	default:
		fail(fmt.Errorf("unknown gap policy %q (have split, drop, scale)", *gapPolicy))
	}

	root := obs.Start("phasedetect")
	opts := phase.Options{
		KMax:              *kmax,
		CoverageThreshold: *threshold,
		Cluster:           cluster.Options{Seed: *seed, Parallelism: *parallel},
		Span:              root,
	}
	if !*includeMPI {
		opts.Features.Exclude = mpi.IsMPIFunc
	}
	switch *selection {
	case "elbow":
		opts.Selection = phase.Elbow
	case "silhouette":
		opts.Selection = phase.Silhouette
	default:
		fail(fmt.Errorf("unknown selection %q", *selection))
	}
	switch *algorithm {
	case "kmeans":
		opts.Algorithm = phase.KMeansAlg
	case "dbscan":
		opts.Algorithm = phase.DBSCANAlg
	default:
		fail(fmt.Errorf("unknown algorithm %q", *algorithm))
	}

	var (
		det      *phase.Detection
		profiles []interval.Profile
		lastSnap *profile.Sample
	)
	if *follow {
		det, profiles, lastSnap = followDir(*dir, opts, policy, followConfig{
			format:     ffmt,
			poll:       *followPoll,
			idle:       *followIdle,
			refresh:    *refreshEvery,
			reorder:    *reorder,
			salvage:    *salvage,
			ckptDir:    *ckptDir,
			ckptEvery:  *ckptEvery,
			ckptNoSync: *ckptNoSync,
			resume:     *resume,
			maxPending: *maxPending,
			shed:       shed,
			stall:      *stall,
			seed:       *seed,
			selection:  *selection,
			algorithm:  *algorithm,
			span:       root,
		})
	} else {
		det, profiles, lastSnap = batchDir(*dir, ffmt, opts, policy, *text, *gmonout, *salvage, *parallel, root)
	}

	if *promote && lastSnap == nil {
		// A resumed follow that saw no new dumps has no snapshot in hand.
		fmt.Println("call-graph promotion skipped: no snapshot ingested this run")
		*promote = false
	}
	if *promote {
		g := callgraph.FromSnapshot(lastSnap)
		n := callgraph.PromoteDetection(det, g, callgraph.PromoteOptions{Exclude: mpi.IsMPIFunc})
		fmt.Printf("call-graph promotion changed %d sites\n", n)
	}
	if *merge {
		if n := det.MergeDuplicatePhases(); n > 0 {
			fmt.Printf("merged %d duplicate phases\n", n)
		}
	}

	fmt.Printf("%d intervals, %d feature dimensions, %d phases (%s/%s)\n",
		len(profiles), det.Matrix.Dims(), len(det.Phases), *algorithm, *selection)
	if len(det.WCSS) > 0 {
		fmt.Print("WCSS sweep:")
		for k, w := range det.WCSS {
			fmt.Printf(" k%d=%.3g", k+1, w)
		}
		fmt.Println()
	}
	if len(det.NoiseIntervals) > 0 {
		fmt.Printf("DBSCAN noise intervals: %v\n", det.NoiseIntervals)
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
	fail(tb.Render(os.Stdout))
	assign := make([]int, len(profiles))
	for i := range assign {
		assign[i] = -1
	}
	for _, p := range det.Phases {
		for _, idx := range p.Intervals {
			assign[idx] = p.ID
		}
	}
	fmt.Println()
	fail(report.RenderPhaseTimeline(os.Stdout, "Phase timeline:", assign, 100))

	if *fast {
		res := fastphase.Analyze(profiles, fastphase.Options{Exclude: mpi.IsMPIFunc})
		fmt.Println()
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
		fail(ft.Render(os.Stdout))
		pt := report.NewTable("Periodicities (autocorrelation peaks)",
			"Function", "Period (intervals)", "Strength")
		for _, p := range res.Periodicities {
			pt.AddRow(p.Function, fmt.Sprint(p.Period), fmt.Sprintf("%.2f", p.Strength))
		}
		fmt.Println()
		fail(pt.Render(os.Stdout))
	}

	if *onlineFlag {
		tr := online.New(online.Options{Exclude: mpi.IsMPIFunc})
		events := tr.ObserveAll(profiles)
		fmt.Printf("\nstreaming tracker: %d phases, transitions at %v\n",
			tr.Phases(), tr.Transitions())
		for _, ev := range events {
			if ev.NewPhase {
				fmt.Printf("  interval %d founds phase %d\n", ev.Interval, ev.Phase)
			}
		}
	}

	root.End()
	fail(obsRun.Finish())
}

// batchDir is the original one-shot path: load every stored dump, difference
// them, detect phases.
func batchDir(dir string, f *profile.Format, opts phase.Options, policy interval.GapPolicy, text, gmonout, salvage bool, parallel int, root *obs.Span) (*phase.Detection, []interval.Profile, *profile.Sample) {
	var snaps []*profile.Sample
	var err error
	switch {
	case text:
		snaps, err = incprof.LoadTextReports(dir)
	case gmonout:
		var st *incprof.GmonOutStore
		st, err = incprof.NewGmonOutStore(dir)
		if err == nil {
			snaps, err = st.Snapshots()
		}
	default:
		var st *incprof.DirStore
		st, err = incprof.NewFormatDirStore(dir, f)
		if err == nil && salvage {
			var rep incprof.LoadReport
			snaps, rep, err = st.SnapshotsSalvageP(parallel)
			for _, sk := range rep.Skipped {
				fmt.Printf("salvage: skipped %s (seq %d): %v\n", sk.Name, sk.Seq, sk.Err)
			}
		} else if err == nil {
			snaps, err = st.SnapshotsP(parallel)
		}
	}
	fail(err)
	if len(snaps) == 0 {
		fail(fmt.Errorf("no snapshots found in %s", dir))
	}

	var profiles []interval.Profile
	if salvage {
		res, rerr := interval.DifferenceRobust(snaps, interval.RobustOptions{Policy: policy, Parallelism: parallel, Span: root})
		fail(rerr)
		profiles = res.Profiles
		reportGaps(res.Gaps, res.Repaired(), policy)
	} else {
		diff := root.Child("interval.difference")
		profiles, err = interval.DifferenceP(snaps, parallel)
		fail(err)
		diff.SetInt("profiles", int64(len(profiles))).End()
	}

	det, err := phase.Detect(profiles, opts)
	fail(err)
	return det, profiles, snaps[len(snaps)-1]
}

type followConfig struct {
	format     *profile.Format // nil = auto-detect once the first dump lands
	poll       time.Duration
	idle       time.Duration
	refresh    int
	reorder    int
	salvage    bool
	ckptDir    string
	ckptEvery  int
	ckptNoSync bool
	resume     bool
	maxPending int
	shed       stream.ShedPolicy
	stall      time.Duration
	seed       uint64
	selection  string
	algorithm  string
	span       *obs.Span
}

// followDir tails the dump directory through the streaming engine. Live
// progress prints with a "live:" prefix; everything else matches the batch
// path's output for the same final directory contents. With a checkpoint
// directory the engine runs behind the durability layer — WAL per dump,
// periodic snapshots, resumable after a kill — and with -max-pending or
// -stall a bounded admission queue sits between the tailer and the engine.
func followDir(dir string, opts phase.Options, policy interval.GapPolicy, cfg followConfig) (*phase.Detection, []interval.Profile, *profile.Sample) {
	// Engine callbacks print live lines; the replaying flag mutes them while
	// recovery re-feeds WAL'd dumps the previous process already reported.
	replaying := false
	engOpts := stream.Options{
		Robust:       cfg.salvage,
		Gap:          policy,
		Reorder:      cfg.reorder,
		Phase:        opts,
		RefreshEvery: cfg.refresh,
		Span:         cfg.span,
		OnLabel: func(ev online.Event) {
			if replaying {
				return
			}
			mark := ""
			if ev.NewPhase {
				mark = " (new phase)"
			} else if ev.Transition {
				mark = " (transition)"
			}
			if ev.LowConfidence {
				mark += " (low confidence)"
			}
			fmt.Printf("live: interval %d -> phase %d%s\n", ev.Interval, ev.Phase, mark)
		},
		OnRefresh: func(r stream.Refresh) {
			if replaying || r.Final {
				return
			}
			warm := ""
			if r.WarmAccepted {
				warm = ", warm start accepted"
			}
			fmt.Printf("live: refresh %d: k=%d over %d intervals (%d sites reused, %d recomputed%s)\n",
				r.Index, r.K, r.Intervals, r.SitesReused, r.SitesRecomputed, warm)
		},
		OnGap: func(g interval.Gap) {
			if replaying {
				return
			}
			fmt.Printf("live: gap %s seq %d..%d (%d missing)\n", g.Kind, g.FromSeq, g.ToSeq, g.Missing)
		},
	}

	// The sink stack, innermost out: engine, optional checkpoint runner,
	// optional admission queue.
	var (
		eng    *stream.Engine
		runner *checkpoint.Runner
		inner  stream.Sink[*profile.Sample] // runner when durable, engine otherwise
	)
	if cfg.ckptDir != "" {
		if !cfg.resume {
			if entries, err := os.ReadDir(cfg.ckptDir); err == nil && len(entries) > 0 {
				fail(fmt.Errorf("%s already holds checkpoint state; pass -resume to continue that run or clear the directory", cfg.ckptDir))
			}
		}
		mgr, err := checkpoint.Open(cfg.ckptDir, checkpoint.ManagerOptions{NoSync: cfg.ckptNoSync})
		fail(err)
		replaying = true
		var rec *checkpoint.Recovery
		runner, rec, err = checkpoint.Start(mgr, checkpoint.RunnerOptions{
			Config: ckptConfig(opts, policy, cfg),
			Engine: engOpts,
			Every:  cfg.ckptEvery,
		})
		fail(err)
		replaying = false
		for _, skip := range rec.Skipped {
			fmt.Printf("live: resume: skipped invalid snapshot: %s\n", skip)
		}
		if rec.TornWAL {
			fmt.Println("live: resume: WAL tail was torn; truncated to the last valid record")
		}
		if cfg.resume {
			from := 0
			if rec.Snapshot != nil {
				from = rec.Snapshot.Accepted
			}
			fmt.Printf("live: resume: snapshot at %d accepted dumps, %d WAL records replayed\n", from, runner.Replayed())
		}
		eng = runner.Engine()
		inner = runner
	} else {
		eng = stream.New(engOpts)
		inner = eng
	}

	var adm *stream.Admission
	var head incprof.Sink = inner
	if cfg.maxPending > 0 || cfg.stall > 0 {
		adm = stream.NewAdmission(inner, stream.AdmissionOptions{
			MaxPending: cfg.maxPending,
			Policy:     cfg.shed,
			Stall:      cfg.stall,
			OnShed: func(s *profile.Sample) {
				if runner != nil {
					if err := runner.RecordShed(s); err != nil {
						fmt.Fprintln(os.Stderr, "phasedetect: recording shed dump:", err)
					}
				}
				fmt.Printf("live: shed seq %d (queue full)\n", s.Seq)
			},
		})
		head = adm
	}

	// SIGTERM/SIGINT end the tail gracefully: stop ingesting, snapshot the
	// engine state, flush the report. A second signal kills as usual.
	stop := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		signal.Stop(sigCh)
		close(stop)
	}()

	ffmt := cfg.format
	if ffmt == nil {
		f, derr := waitDetect(dir, cfg.poll, cfg.idle, stop)
		fail(derr)
		ffmt = f // still nil if the dir stayed empty: tail the canonical layout
	}

	topts := incprof.TailOptions{
		Format:  ffmt,
		Poll:    cfg.poll,
		Idle:    cfg.idle,
		Salvage: cfg.salvage,
		Stop:    stop,
		OnSkip: func(sk incprof.SkippedFile) {
			fmt.Printf("salvage: skipped %s (seq %d): %v\n", sk.Name, sk.Seq, sk.Err)
		},
	}
	if runner != nil {
		topts.Seen = runner.Seen
	}
	res, err := incprof.TailDir(dir, head, topts)
	if err == stream.ErrStalled || (adm != nil && adm.Halted()) {
		if runner != nil {
			fmt.Fprintf(os.Stderr, "phasedetect: %v; durable state in %s is current through the WAL, resume with -resume\n", stream.ErrStalled, cfg.ckptDir)
		} else {
			fmt.Fprintln(os.Stderr, "phasedetect:", stream.ErrStalled)
		}
		os.Exit(1)
	}
	fail(err)
	if res.Stopped {
		fmt.Println("live: stop signal received; finishing with what has been accepted")
		if runner != nil {
			runner.SetSaveOnFlush(true)
		}
	}
	if res.Emitted == 0 && (runner == nil || runner.Accepted() == 0) {
		fail(fmt.Errorf("no snapshots found in %s", dir))
	}
	if adm != nil {
		if err := adm.Flush(); err == stream.ErrStalled {
			fmt.Fprintln(os.Stderr, "phasedetect:", err)
			os.Exit(1)
		} else {
			fail(err)
		}
		if n := adm.Shed(); n > 0 {
			fmt.Printf("live: %d dumps shed under overload (%s policy)\n", n, cfg.shed)
		}
	}
	var r *stream.Result
	if runner != nil {
		if res.Stopped {
			fmt.Printf("live: state saved to %s; resume with -resume\n", cfg.ckptDir)
		}
		r, err = runner.Finish()
	} else {
		r, err = eng.Finish()
	}
	fail(err)
	if cfg.salvage {
		repaired := 0
		for _, p := range r.Profiles {
			if p.Repaired {
				repaired++
			}
		}
		reportGaps(r.Gaps, repaired, policy)
	}
	return r.Detection, r.Profiles, res.Last
}

// waitDetect resolves -format auto under -follow: poll the directory until
// the first dump appears and names its format. A directory that stays empty
// through the idle window or a stop signal yields (nil, nil) — the tail then
// runs against the canonical layout and the normal no-snapshots / resumed-
// idle handling applies. A mixed-format directory fails immediately.
func waitDetect(dir string, poll, idle time.Duration, stop <-chan struct{}) (*profile.Format, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	if idle <= 0 {
		idle = 2 * time.Second
	}
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

// ckptConfig fingerprints the analysis options for the checkpoint layer: a
// resume under any differing value would produce a report matching neither
// the old run nor a fresh one, so Recover refuses it.
func ckptConfig(opts phase.Options, policy interval.GapPolicy, cfg followConfig) checkpoint.Config {
	return checkpoint.Config{
		Seed:              cfg.seed,
		KMax:              opts.KMax,
		CoverageThreshold: opts.CoverageThreshold,
		Selection:         cfg.selection,
		Algorithm:         cfg.algorithm,
		FeatureKind:       opts.Features.Kind.String(),
		ExcludeMPI:        opts.Features.Exclude != nil,
		Robust:            cfg.salvage,
		GapPolicy:         policy.String(),
		Reorder:           cfg.reorder,
		RefreshEvery:      cfg.refresh,
	}
}

// reportGaps prints the salvage-mode gap summary, shared verbatim by the
// batch and follow paths so their reports diff clean.
func reportGaps(gaps []interval.Gap, repaired int, policy interval.GapPolicy) {
	for _, g := range gaps {
		fmt.Printf("gap: %s seq %d..%d (%d missing)\n", g.Kind, g.FromSeq, g.ToSeq, g.Missing)
	}
	if repaired > 0 {
		fmt.Printf("salvage: %d gaps, %d repaired intervals (%s policy)\n", len(gaps), repaired, policy)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "phasedetect:", err)
		os.Exit(1)
	}
}
