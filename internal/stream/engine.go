// engine.go is the incremental analysis engine. One engine serves both
// execution modes:
//
//   - Batch: feed every snapshot, Flush once, read Result. The terminal
//     refresh runs the identical phase.DetectMatrix call the batch
//     phase.Detect performs over the identical matrix and profiles, so the
//     result is byte-for-byte the batch analysis for a fixed seed.
//   - Live: feed snapshots as they arrive, one Emit at a time or in
//     EmitBatch runs closed by EndPass; once RefreshEvery intervals have
//     arrived since the last refresh, the engine refits the phase model
//     (phase.Fit) on a bounded row sample of everything seen so far
//     (phase.RefreshRows), surfacing labels, gaps, and refreshed models
//     through callbacks. Live labels come from the last refreshed model
//     (labels.go).
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
	// RefreshEvery refits the phase model once that many intervals have
	// arrived since the last refresh, clustering at most 384 sampled rows.
	// The check runs after each Emit and at each EndPass, so a directory
	// pass of dumps gets at most one refresh. 0 (the batch setting) defers
	// all clustering to Flush.
	RefreshEvery int
	// OnLabel receives a live phase label per interval as it arrives,
	// read from the last intermediate refresh's model (labels.go); the
	// engine labels nothing when it is nil.
	OnLabel func(online.Event)
	// OnGap receives each repaired stream discontinuity as it happens.
	OnGap func(interval.Gap)
	// OnRefresh receives every refresh result, including the final one.
	OnRefresh func(Refresh)
	// Span, when non-nil, parents the engine's tracing spans.
	Span *obs.Span
}

// Refresh summarizes one re-clustering pass: an intermediate one refits the
// model only; the final one is the full detection, Result.Detection.
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
	// Model is an intermediate pass's fitted model; nil on the final pass.
	Model *phase.Model
}

// Engine is the streaming analysis pipeline. It is a Sink, and a batch sink
// (EmitBatch, EndPass), so a collector or a directory reader can feed it
// directly.
// It is not safe for concurrent use.
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

	builder *interval.MatrixBuilder // the intervals' one store, and the matrix

	snaps        int
	sinceRefresh int
	refreshes    int
	last         *phase.Model     // the latest intermediate refresh's
	live         labeller         // last's clusters and the provisional phases
	final        *phase.Detection // the terminal refresh's
	span         *obs.Span
	flushed      bool
}

// New builds an engine: Emit calls the differencer, which hands every
// completed interval to the feature builder, the live labeller and the
// refresh cadence.
func New(opts Options) *Engine {
	e := &Engine{
		opts:    opts,
		popts:   opts.Phase.WithDefaults(),
		builder: interval.NewMatrixBuilder(opts.Phase.Features),
		live:    labeller{prev: -1},
		span:    obs.Under(opts.Span, "stream.engine", 0),
	}
	e.span.SetBool("robust", opts.Robust).SetInt("refresh_every", int64(opts.RefreshEvery))
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

// Emit ingests the next cumulative snapshot, then runs the refresh if one
// is due: a caller feeding one dump at a time gets a refresh after every
// RefreshEvery-th interval.
func (e *Engine) Emit(s *profile.Sample) error {
	batch := [1]*profile.Sample{s}
	if err := e.EmitBatch(batch[:]); err != nil {
		return err
	}
	return e.EndPass()
}

// EmitBatch ingests a run of consecutive cumulative snapshots. A live label
// still surfaces for every interval as it arrives; the refresh the run
// makes due waits for EndPass (or Flush). Each slot of batch is set to nil
// as its snapshot is differenced, so a batch pins no more memory than
// feeding its dumps one Emit at a time.
func (e *Engine) EmitBatch(batch []*profile.Sample) error {
	for i, s := range batch {
		batch[i] = nil
		e.snaps++
		e.snapItems.Inc()
		var start time.Time
		if e.snapLat != nil {
			start = time.Now()
		}
		err := e.diff.Emit(s)
		if e.snapLat != nil {
			e.snapLat.Observe(time.Since(start))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// EndPass marks the end of a directory pass: the reader has emitted every
// dump it could this pass. It runs the one intermediate refresh the pass
// made due, if any, so a catch-up over a backlog refreshes once, when it
// has caught up.
func (e *Engine) EndPass() error {
	if e.opts.RefreshEvery > 0 && e.sinceRefresh >= e.opts.RefreshEvery {
		return e.refresh()
	}
	return nil
}

// consume receives every completed interval from the differencer, timing
// the step when latencies are recorded.
func (e *Engine) consume(d *interval.Delta) error {
	e.intervalItems.Inc()
	if e.intervalLat == nil {
		e.step(d)
		return nil
	}
	start := time.Now()
	e.step(d)
	e.intervalLat.Observe(time.Since(start))
	return nil
}

// step stores one interval's cells as a row, labels the row live and
// counts it toward the next refresh.
func (e *Engine) step(d *interval.Delta) {
	e.builder.AddCells(d.Start, d.End, d.Repaired, d.Cells, d.Name)
	if e.opts.OnLabel != nil {
		e.opts.OnLabel(e.live.label(e.builder, e.builder.NumRows()-1, d.Repaired))
	}
	if e.opts.RefreshEvery > 0 {
		e.sinceRefresh++
	}
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
	// The terminal pass runs the batch detection over every row, so it is
	// byte-identical to phase.Detect over the same profiles; it traces
	// under the engine span.
	popts := e.popts
	popts.Span = e.span
	det, err := phase.DetectMatrix(e.builder.Rows(), e.builder.CSRMatrix(), nil, popts)
	if err != nil {
		return err
	}
	e.final = det
	n := e.builder.NumRows()
	e.done(Refresh{Final: true, Intervals: n, Clustered: n, K: det.K})
	return nil
}

// refresh refits the phase model on everything seen so far: phase.Fit on
// the phase.RefreshRows sample, at most 384 rows however long the run,
// read straight out of the builder. No phase is assembled, no site selected
// and no earlier interval relabelled: live mode reads only the model's K
// and its centroids, which label the intervals still to come. The pass
// traces under its own stream.refresh span.
func (e *Engine) refresh() error {
	n := e.builder.NumRows()
	if n == 0 || e.builder.Dims() == 0 {
		// Too early to cluster (no rows, or no function active yet): a live
		// stream just waits for the next refresh; only the terminal pass
		// turns this into the batch path's error.
		obs.C("stream.refresh.skipped").Inc()
		e.sinceRefresh = 0
		return nil
	}
	popts := e.popts
	var rows []int
	if popts.Algorithm == phase.KMeansAlg {
		rows = phase.RefreshRows(n, popts.Cluster.Seed)
	}
	clustered := n
	if rows != nil {
		clustered = len(rows)
	}
	rsp := e.span.ChildKey("stream.refresh", uint64(e.refreshes+1))
	defer rsp.End()
	rsp.SetInt("intervals", int64(n)).SetInt("clustered", int64(clustered))
	popts.Span = rsp
	m := e.builder.SelectRows(rows)
	md, err := phase.Fit(m, nil, popts)
	if err != nil {
		return err
	}
	e.last = md
	e.live.reset(md, m.FuncNames)
	e.done(Refresh{Intervals: n, Clustered: clustered, K: md.K, Model: md})
	return nil
}

// done counts a finished refresh and reports it.
func (e *Engine) done(r Refresh) {
	obs.C("stream.refreshes").Inc()
	r.Index = e.refreshes
	e.refreshes++
	e.sinceRefresh = 0
	if e.opts.OnRefresh != nil {
		e.opts.OnRefresh(r)
	}
}

// Last returns the most recent intermediate refresh's model (nil before
// the first) — the live view of the run's phase structure. A restored
// engine's keeps no Assign, and its centroids are in live phase-ID order
// (see EngineState.Model). The terminal detection is Result.Detection.
func (e *Engine) Last() *phase.Model { return e.last }

// Dims returns the feature-space dimensionality accumulated so far.
func (e *Engine) Dims() int { return e.builder.Dims() }

// Result is the engine's terminal output, mirroring the batch analysis.
type Result struct {
	// Detection is the final detection, byte-identical to the batch
	// phase.Detect over the same snapshots and options.
	Detection *phase.Detection
	// Profiles are the intervals the stream produced, as rows of the
	// engine's store (interval.Profiles materializes them).
	Profiles []interval.Row
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
		Detection: e.final,
		Profiles:  e.builder.Rows(),
		Gaps:      e.diff.Gaps(),
		Refreshes: e.refreshes,
		LateDrops: e.diff.LateDrops(),
	}, nil
}
