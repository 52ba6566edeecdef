// Package pipeline wires the whole IncProf workflow together, mirroring the
// paper's Figure 1 plus the AppEKG step:
//
//  1. Collect: run an application on the MPI substrate with the gprof-model
//     profiler attached and the IncProf collector dumping cumulative
//     snapshots once per interval on every rank.
//  2. Analyze: difference rank 0's snapshots into interval profiles, detect
//     phases (k-means + Elbow) and select instrumentation sites
//     (Algorithm 1).
//  3. Heartbeat: re-run the application with AppEKG instrumentation on the
//     selected (or manual) sites and gather the per-interval heartbeat
//     series that Figures 2-6 plot.
//
// Host wall-clock durations of the uninstrumented, profiled, and
// heartbeat-instrumented runs feed Table I's overhead columns.
package pipeline

import (
	"fmt"
	"time"

	"github.com/incprof/incprof/internal/apps"
	"github.com/incprof/incprof/internal/callgraph"
	"github.com/incprof/incprof/internal/faults"
	"github.com/incprof/incprof/internal/heartbeat"
	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/mpi"
	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/profiler"
	"github.com/incprof/incprof/internal/stream"
)

// CollectOptions configures a collection run.
type CollectOptions struct {
	// Interval is the IncProf dump interval (0 means 1s).
	Interval time.Duration
	// SamplePeriod is the profiling clock period (0 means 10ms).
	SamplePeriod time.Duration
	// Profile attaches the profiler and collector; when false the run is
	// the uninstrumented baseline.
	Profile bool
	// Cost is the MPI collective cost model.
	Cost mpi.CostModel
	// Faults, when non-nil, interposes the fault injector between every
	// rank's collector and its store, exercising the degraded data path.
	// Injection is deterministic per (Faults.Seed, rank, dump Seq).
	Faults *faults.Plan
	// Span, when non-nil, parents the tracing span Collect records.
	Span *obs.Span
}

// CollectionResult is the outcome of one application run under (or without)
// IncProf.
type CollectionResult struct {
	// Snapshots holds each rank's cumulative dumps; Snapshots[0] is the
	// representative rank the analysis uses.
	Snapshots [][]*profile.Sample
	// VirtualRuntime is the application's span in virtual time (max over
	// ranks).
	VirtualRuntime time.Duration
	// HostDuration is the real time the run took, the basis of overhead
	// measurements.
	HostDuration time.Duration
	// Dumps is the total number of snapshots across ranks.
	Dumps int
	// RepSamples, RepCalls, and RepDumps are the representative (rank 0)
	// instrumentation event counts a profiled run generated; the
	// OverheadModel prices them.
	RepSamples int64
	RepCalls   int64
	RepDumps   int64
	// DroppedDumps is the total number of dumps lost across ranks — to
	// store failures the collector's retry could not absorb, plus any the
	// fault injector discarded.
	DroppedDumps int
}

// Collect runs the application once.
func Collect(app apps.App, opts CollectOptions) (*CollectionResult, error) {
	ranks := app.Meta().Ranks
	sp := obs.Under(opts.Span, "pipeline.collect", 0)
	sp.SetStr("app", app.Meta().Name).SetInt("ranks", int64(ranks)).SetBool("profile", opts.Profile)
	defer sp.End()
	res := &CollectionResult{Snapshots: make([][]*profile.Sample, ranks)}
	stores := make([]incprof.Store, ranks)
	fstores := make([]*faults.Store, ranks)
	collDropped := make([]int, ranks)
	vtimes := make([]time.Duration, ranks)
	start := time.Now()
	var repSamples, repCalls, repDumps int64
	err := mpi.Run(mpi.Config{Size: ranks, Cost: opts.Cost}, nil, func(r *mpi.Rank) {
		rt := r.Runtime()
		if opts.Profile {
			p := profiler.New(rt, opts.SamplePeriod)
			var st incprof.Store = incprof.NewMemStore()
			if opts.Faults != nil {
				fs := faults.NewStore(st, *opts.Faults, r.ID())
				fstores[r.ID()] = fs
				st = fs
			}
			stores[r.ID()] = st
			c := incprof.New(rt, p, incprof.Options{Interval: opts.Interval, Store: st})
			defer func() {
				c.Close()
				collDropped[r.ID()] = c.Dropped()
				if r.ID() == 0 {
					repSamples = p.TotalSamples()
					repCalls = p.TotalCalls()
					repDumps = int64(c.Dumps())
				}
			}()
		}
		app.Run(r)
		vtimes[r.ID()] = rt.Now().Duration()
	})
	res.HostDuration = time.Since(start)
	if err != nil {
		return nil, err
	}
	res.RepSamples, res.RepCalls, res.RepDumps = repSamples, repCalls, repDumps
	for id, st := range stores {
		if st == nil {
			continue
		}
		snaps, err := st.Snapshots()
		if err != nil {
			return nil, err
		}
		res.Snapshots[id] = snaps
		res.Dumps += len(snaps)
		res.DroppedDumps += collDropped[id]
		if fstores[id] != nil {
			res.DroppedDumps += fstores[id].Dropped()
		}
	}
	for _, vt := range vtimes {
		if vt > res.VirtualRuntime {
			res.VirtualRuntime = vt
		}
	}
	sp.SetInt("dumps", int64(res.Dumps)).SetInt("dropped", int64(res.DroppedDumps))
	return res, nil
}

// AnalyzeOptions configures the phase analysis.
type AnalyzeOptions struct {
	// Phase configures detection; zero values take the paper defaults.
	Phase phase.Options
	// Parallelism bounds the worker pools the analysis hot path fans out
	// on: the k-means sweep and silhouette scoring. (Differencing is
	// incremental in the streaming engine and therefore serial.) 0 means
	// GOMAXPROCS, 1 forces the serial path. The result is identical for
	// every value given the same Phase.Cluster.Seed.
	Parallelism int
	// Rank selects the representative rank (default 0).
	Rank int
	// IncludeMPI keeps MPI pseudo-functions in the feature space. The
	// default (false) matches gprof's real behavior: MPI library time is
	// invisible to the histogram because the library is not compiled
	// with -pg.
	IncludeMPI bool
	// PromoteSites applies call-graph site promotion (the paper's §VI-B
	// improvement path): sites climb unique-caller chains to
	// higher-level source functions.
	PromoteSites bool
	// Promote tunes the promotion walk when PromoteSites is set.
	Promote callgraph.PromoteOptions
	// MergePhases combines phases with identical site sets after
	// detection (the paper's §VI-A/§VI-D postprocessing idea).
	MergePhases bool
	// Robust switches snapshot differencing to the gap-aware path
	// (interval.DifferenceRobust): missing, duplicate, late, and
	// regressed dumps degrade the analysis instead of failing it, and the
	// gaps encountered are reported on the Analysis.
	Robust bool
	// Gap selects the repair policy for missing dumps when Robust is set;
	// the zero value is GapSplit.
	Gap interval.GapPolicy
	// Span, when non-nil, parents the tracing span Analyze records.
	Span *obs.Span
}

// Analysis is the phase-analysis output plus the interval profiles it ran
// on.
type Analysis struct {
	Detection *phase.Detection
	Profiles  []interval.Profile
	// Gaps lists the collection faults robust differencing absorbed;
	// empty on the strict path and on clean streams.
	Gaps []interval.Gap
}

// Analyze differences the chosen rank's snapshots and runs phase detection.
func Analyze(res *CollectionResult, opts AnalyzeOptions) (*Analysis, error) {
	if opts.Rank < 0 || opts.Rank >= len(res.Snapshots) {
		return nil, fmt.Errorf("pipeline: rank %d out of range", opts.Rank)
	}
	snaps := res.Snapshots[opts.Rank]
	if len(snaps) == 0 {
		return nil, fmt.Errorf("pipeline: rank %d has no snapshots (was Profile set?)", opts.Rank)
	}
	sp := obs.Under(opts.Span, "pipeline.analyze", 0)
	sp.SetInt("rank", int64(opts.Rank)).SetInt("snapshots", int64(len(snaps))).SetBool("robust", opts.Robust)
	defer sp.End()
	popts := opts.Phase
	if popts.Cluster.Parallelism == 0 {
		popts.Cluster.Parallelism = opts.Parallelism
	}
	if !opts.IncludeMPI && popts.Features.Exclude == nil {
		popts.Features.Exclude = mpi.IsMPIFunc
	}
	// Analyze is Run over the snapshot list: the same differencer, feature
	// builder, and terminal detection a live feed uses, so batch and live
	// analysis cannot diverge.
	r, err := Run(Snapshots(snaps), RunOptions{Engine: stream.Options{
		Robust: opts.Robust,
		Gap:    opts.Gap,
		Phase:  popts,
		Span:   sp,
	}})
	if err != nil {
		return nil, err
	}
	det, profs, gaps := r.Detection, r.Profiles, r.Gaps
	if opts.PromoteSites {
		// The final snapshot's arcs cover the whole run.
		g := callgraph.FromSnapshot(snaps[len(snaps)-1])
		popts := opts.Promote
		if popts.Exclude == nil {
			popts.Exclude = mpi.IsMPIFunc
		}
		callgraph.PromoteDetection(det, g, popts)
	}
	if opts.MergePhases {
		det.MergeDuplicatePhases()
	}
	return &Analysis{Detection: det, Profiles: profs, Gaps: gaps}, nil
}

// HeartbeatOptions configures an instrumented run.
type HeartbeatOptions struct {
	// Interval is the heartbeat collection interval (0 means 1s).
	Interval time.Duration
	// LoopBeatPeriod is the nominal loop-iteration beat duration
	// (0 means 100ms).
	LoopBeatPeriod time.Duration
	// Cost is the MPI collective cost model.
	Cost mpi.CostModel
}

// HeartbeatResult is the outcome of a heartbeat-instrumented run.
type HeartbeatResult struct {
	// Records holds rank 0's heartbeat records in interval order.
	Records []heartbeat.Record
	// PerRankBeats is the total completed beats per rank, an aggregate
	// symmetry check.
	PerRankBeats []int64
	// VirtualRuntime is the run's span in virtual time.
	VirtualRuntime time.Duration
	// HostDuration is the real time the run took.
	HostDuration time.Duration
	// Sites echoes the instrumented sites.
	Sites []heartbeat.SiteSpec
}

// RunWithHeartbeats re-runs the application with AppEKG auto-instrumentation
// on the given sites.
func RunWithHeartbeats(app apps.App, sites []heartbeat.SiteSpec, opts HeartbeatOptions) (*HeartbeatResult, error) {
	ranks := app.Meta().Ranks
	res := &HeartbeatResult{PerRankBeats: make([]int64, ranks), Sites: sites}
	sinks := make([]*heartbeat.MemSink, ranks)
	vtimes := make([]time.Duration, ranks)
	start := time.Now()
	err := mpi.Run(mpi.Config{Size: ranks, Cost: opts.Cost}, nil, func(r *mpi.Rank) {
		rt := r.Runtime()
		sink := heartbeat.NewMemSink()
		sinks[r.ID()] = sink
		ekg := heartbeat.New(heartbeat.Options{
			Interval: opts.Interval,
			Clock:    rt.Clock(),
			Sinks:    []heartbeat.Sink{sink},
		})
		heartbeat.Instrument(rt, ekg, sites, opts.LoopBeatPeriod)
		defer ekg.Close()
		app.Run(r)
		vtimes[r.ID()] = rt.Now().Duration()
	})
	res.HostDuration = time.Since(start)
	if err != nil {
		return nil, err
	}
	for id, sink := range sinks {
		recs := sink.Records()
		for _, rec := range recs {
			res.PerRankBeats[id] += rec.Count
		}
		if id == 0 {
			res.Records = recs
		}
	}
	for _, vt := range vtimes {
		if vt > res.VirtualRuntime {
			res.VirtualRuntime = vt
		}
	}
	return res, nil
}

// Experiment bundles the full workflow for one application.
type Experiment struct {
	App      apps.App
	Baseline *CollectionResult
	Profiled *CollectionResult
	Analysis *Analysis
	// Discovered is the heartbeat run on the discovered sites;
	// Manual the run on the paper's manual sites.
	Discovered *HeartbeatResult
	Manual     *HeartbeatResult
}

// ExperimentOptions configures RunExperiment.
type ExperimentOptions struct {
	Collect   CollectOptions
	Analyze   AnalyzeOptions
	Heartbeat HeartbeatOptions
	// SkipBaseline omits the uninstrumented run (overhead columns will
	// be zero).
	SkipBaseline bool
	// SkipManual omits the manual-site heartbeat run.
	SkipManual bool
}

// RunExperiment executes the full pipeline for one application: baseline,
// profiled collection, analysis, and heartbeat runs on discovered and manual
// sites.
func RunExperiment(app apps.App, opts ExperimentOptions) (*Experiment, error) {
	e := &Experiment{App: app}
	var err error
	if !opts.SkipBaseline {
		base := opts.Collect
		base.Profile = false
		if e.Baseline, err = Collect(app, base); err != nil {
			return nil, fmt.Errorf("baseline run: %w", err)
		}
	}
	prof := opts.Collect
	prof.Profile = true
	if e.Profiled, err = Collect(app, prof); err != nil {
		return nil, fmt.Errorf("profiled run: %w", err)
	}
	if e.Analysis, err = Analyze(e.Profiled, opts.Analyze); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	discovered := heartbeat.SitesFromDetection(e.Analysis.Detection)
	if e.Discovered, err = RunWithHeartbeats(app, discovered, opts.Heartbeat); err != nil {
		return nil, fmt.Errorf("discovered-site heartbeat run: %w", err)
	}
	if !opts.SkipManual {
		if e.Manual, err = RunWithHeartbeats(app, app.ManualSites(), opts.Heartbeat); err != nil {
			return nil, fmt.Errorf("manual-site heartbeat run: %w", err)
		}
	}
	return e, nil
}

// OverheadPct returns the relative host-time overhead of run versus base in
// percent, the measure behind Table I's overhead columns.
func OverheadPct(base, run time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (float64(run) - float64(base)) / float64(base)
}
