// engine.go is the incremental analysis engine. One engine serves both
// execution modes:
//
//   - Batch: feed every snapshot, Flush once, read Result. The terminal
//     refresh runs the identical phase.DetectMatrix call the batch
//     phase.Detect performs over the identical matrix and profiles, so the
//     result is byte-for-byte the batch analysis for a fixed seed.
//   - Live: feed snapshots as they arrive; every RefreshEvery intervals the
//     engine runs that same detection over everything seen so far, its k
//     sweep on a bounded row sample (phase.RefreshRows), surfacing labels,
//     gaps, and refreshed detections through callbacks.
package stream

import (
	"fmt"
	"time"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/online"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
)

// Options configures an Engine.
type Options struct {
	// Robust selects gap-aware differencing (interval.RobustStream); false
	// selects strict differencing, where any discontinuity fails the
	// stream.
	Robust bool
	// Gap is the robust-mode repair policy for missing dumps (default
	// GapSplit).
	Gap interval.GapPolicy
	// Reorder is the differencer's bounded reorder window (see
	// DifferencerOptions.Reorder); 0, the batch setting, disables it.
	Reorder int
	// Phase configures detection exactly as in the batch path; zero values
	// take the paper defaults. Cluster.Seed fixes the model; the engine's
	// final result is byte-identical to phase.Detect with these options
	// over the same profiles.
	Phase phase.Options
	// RefreshEvery re-runs detection every that many intervals, clustering
	// at most 384 sampled rows and labeling all of them. 0 (the batch
	// setting) defers all clustering to Flush.
	RefreshEvery int
	// OnLabel receives a live phase label per interval as it arrives. The
	// live label tracker exists only when it is set; the tracker takes its
	// defaults, excluding the functions Phase.Features.Exclude drops.
	OnLabel func(online.Event)
	// OnGap receives each repaired stream discontinuity as it happens.
	OnGap func(interval.Gap)
	// OnRefresh receives every refresh result, including the final one.
	OnRefresh func(Refresh)
	// Span, when non-nil, parents the engine's tracing spans.
	Span *obs.Span
}

// Refresh summarizes one re-clustering pass.
type Refresh struct {
	// Index numbers refreshes from 0; Final marks the Flush-time pass.
	Index int
	Final bool
	// Intervals is the number of profiles the pass covered.
	Intervals int
	// Clustered is the number of those the k sweep ran on: all of them in
	// the final pass, at most 384 in an intermediate one (RefreshRows).
	Clustered int
	// K is the selected number of phases.
	K int
	// Detection is the full result of this pass.
	Detection *phase.Detection
}

// Engine is the streaming analysis pipeline. It is a Sink, so a collector
// (or any snapshot source) can feed it directly. It is not safe for
// concurrent use.
type Engine struct {
	opts  Options
	popts phase.Options // Phase with defaults resolved

	diff *Differencer

	// Item counters and latency histograms per Emit (stream.snapshots.*)
	// and per consumed profile (stream.intervals.*). Counts are
	// deterministic for a fixed input; latencies are wall-clock, surface
	// only in timing-enabled exports, and are nil (untimed) otherwise.
	snapItems, intervalItems *obs.Counter
	snapLat, intervalLat     *obs.Histogram

	builder  *interval.MatrixBuilder
	profiles []interval.Profile
	tracker  *online.Tracker

	snaps        int
	sinceRefresh int
	refreshes    int
	last         *phase.Detection
	span         *obs.Span
	flushed      bool
}

// New builds an engine: Emit calls the differencer, which hands every
// completed profile to the feature builder, the tracker and the refresh
// cadence.
func New(opts Options) *Engine {
	e := &Engine{
		opts:    opts,
		popts:   opts.Phase.WithDefaults(),
		builder: interval.NewMatrixBuilder(opts.Phase.Features),
		span:    obs.Under(opts.Span, "stream.engine", 0),
	}
	e.span.SetBool("robust", opts.Robust).SetInt("refresh_every", int64(opts.RefreshEvery))
	if opts.OnLabel != nil {
		e.tracker = online.New(online.Options{Exclude: opts.Phase.Features.Exclude, OnEvent: opts.OnLabel})
	}
	e.diff = NewDifferencer(DifferencerOptions{
		Robust:  opts.Robust,
		Policy:  opts.Gap,
		Reorder: opts.Reorder,
		OnGap:   opts.OnGap,
	}, e.consume)
	e.intervalItems, e.intervalLat = obs.C("stream.intervals.items"), obs.H("stream.intervals.latency")
	e.snapItems, e.snapLat = obs.C("stream.snapshots.items"), obs.H("stream.snapshots.latency")
	return e
}

// Emit ingests the next cumulative snapshot.
func (e *Engine) Emit(s *profile.Sample) error {
	e.snaps++
	e.snapItems.Inc()
	if e.snapLat == nil {
		return e.diff.Emit(s)
	}
	start := time.Now()
	err := e.diff.Emit(s)
	e.snapLat.Observe(time.Since(start))
	return err
}

// consume receives every completed interval profile from the differencer,
// timing the step when latencies are recorded.
func (e *Engine) consume(p interval.Profile) error {
	e.intervalItems.Inc()
	if e.intervalLat == nil {
		return e.step(p)
	}
	start := time.Now()
	err := e.step(p)
	e.intervalLat.Observe(time.Since(start))
	return err
}

// step updates the matrix and the live tracker with one interval profile
// and triggers the periodic refresh.
func (e *Engine) step(p interval.Profile) error {
	e.profiles = append(e.profiles, p)
	e.builder.Add(&p)
	if e.tracker != nil {
		e.tracker.Observe(p)
	}
	if e.opts.RefreshEvery > 0 {
		e.sinceRefresh++
		if e.sinceRefresh >= e.opts.RefreshEvery {
			return e.refresh(false)
		}
	}
	return nil
}

// Flush ends the stream: the reorder window drains, the terminal refresh
// runs (the batch-equivalent detection), and the engine span closes. Flush
// is idempotent; Emit must not be called after it.
func (e *Engine) Flush() error {
	if e.flushed {
		return nil
	}
	e.flushed = true
	defer e.span.End()
	if err := e.diff.Flush(); err != nil {
		return err
	}
	if e.opts.Robust && e.snaps == 0 {
		return fmt.Errorf("interval: no snapshots")
	}
	return e.refresh(true)
}

// refresh re-runs detection over everything seen so far: every pass is
// phase.DetectMatrix with the engine's options over the incrementally-built
// matrix. The final pass clusters every row, so it is byte-identical to
// phase.Detect over the same profiles. An intermediate k-means pass clusters
// only phase.RefreshRows — at most 384 rows, however long the run — and
// labels every interval against that model, so its cost stops growing with
// the run's history. Intermediate passes trace under their own
// stream.refresh span; the final pass traces under the engine span.
func (e *Engine) refresh(final bool) error {
	// The refresh matrix is built in flat CSR form: the sweep and
	// silhouette selection run on it without densifying.
	m := e.builder.CSRMatrix()
	if !final && (len(e.profiles) == 0 || m.Dims() == 0) {
		// Too early to cluster (no rows, or no function active yet): a live
		// stream just waits for the next refresh; only the terminal pass
		// turns this into the batch path's error.
		obs.C("stream.refresh.skipped").Inc()
		e.sinceRefresh = 0
		return nil
	}

	popts := e.popts
	popts.Span = e.span
	var rows []int
	if !final && popts.Algorithm == phase.KMeansAlg {
		rows = phase.RefreshRows(len(e.profiles), popts.Cluster.Seed)
	}
	clustered := len(e.profiles)
	if rows != nil {
		clustered = len(rows)
	}
	if !final {
		rsp := e.span.ChildKey("stream.refresh", uint64(e.refreshes+1))
		defer rsp.End()
		rsp.SetInt("intervals", int64(len(e.profiles))).SetInt("clustered", int64(clustered))
		popts.Span = rsp
	}
	det, err := phase.DetectMatrix(e.profiles, m, rows, popts)
	if err != nil {
		return err
	}

	e.last = det
	if e.tracker != nil && det.Options.Algorithm == phase.KMeansAlg && e.popts.Features.Kind == interval.SampledSelf {
		// Reseed the live tracker from the fresh model, in phase-ID order
		// so live labels line up with reported phase numbers. The
		// tracker's feature space is sampled self seconds; only the
		// SampledSelf matrix shares it, so other feature kinds leave the
		// tracker's own drifting model in place.
		cents := make([][]float64, len(det.Phases))
		sizes := make([]int, len(det.Phases))
		for i := range det.Phases {
			cents[i] = det.Phases[i].Centroid
			sizes[i] = len(det.Phases[i].Intervals)
		}
		e.tracker.Reseed(m.FuncNames, cents, sizes)
	}

	obs.C("stream.refreshes").Inc()
	idx := e.refreshes
	e.refreshes++
	e.sinceRefresh = 0
	if e.opts.OnRefresh != nil {
		e.opts.OnRefresh(Refresh{
			Index:     idx,
			Final:     final,
			Intervals: len(e.profiles),
			Clustered: clustered,
			K:         det.K,
			Detection: det,
		})
	}
	return nil
}

// Last returns the most recent refresh's detection (nil before the first
// refresh) — the live view of the run's phase structure.
func (e *Engine) Last() *phase.Detection { return e.last }

// Dims returns the feature-space dimensionality accumulated so far.
func (e *Engine) Dims() int { return e.builder.Dims() }

// Result is the engine's terminal output, mirroring the batch analysis.
type Result struct {
	// Detection is the final detection, byte-identical to the batch
	// phase.Detect over the same snapshots and options.
	Detection *phase.Detection
	// Profiles are the per-interval profiles the stream produced.
	Profiles []interval.Profile
	// Gaps lists every repaired discontinuity, in stream order.
	Gaps []interval.Gap
	// Refreshes counts detection passes, including the final one.
	Refreshes int
	// LateDrops counts dumps discarded at the bounded reorder window —
	// arrivals whose Seq the stream had already released past. Each is
	// also a GapLate entry in Gaps (robust mode).
	LateDrops int
}

// Finish flushes the engine and returns its terminal result.
func (e *Engine) Finish() (*Result, error) {
	if err := e.Flush(); err != nil {
		return nil, err
	}
	return &Result{
		Detection: e.last,
		Profiles:  e.profiles,
		Gaps:      e.diff.Gaps(),
		Refreshes: e.refreshes,
		LateDrops: e.diff.LateDrops(),
	}, nil
}
