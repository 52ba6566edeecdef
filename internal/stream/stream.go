// Package stream is the incremental analysis engine: the paper's point is
// that profile analysis can keep pace with 1 Hz dumps, so phase structure is
// available while the application still runs, yet the original pipeline was
// strictly batch — every layer demanded the complete snapshot list up front.
// This package restructures those layers as stages of a typed stream graph
// (Stage → Sink) through which cumulative snapshots flow one at a time:
//
//	snapshots → Differencer → interval.Profile → Engine
//	                                              ├─ interval.MatrixBuilder (append-only rows, growing dims)
//	                                              ├─ online.Tracker         (live labels, reseeded per refresh)
//	                                              └─ every R intervals: phase.DetectMatrix over the prefix
//	                                                 (k sweep, k selection, Algorithm 1)
//
// pipeline.Run drives the graph from a snapshot source. A batch source is
// finite: pipeline.Analyze feeds an Engine from its snapshot list and the
// terminal refresh runs the identical phase.DetectMatrix call a batch
// phase.Detect performs, so for a fixed seed the streaming result is
// byte-identical to the batch result. A live source (cmd/phasedetect
// -follow, a collector Sink) feeds the same engine one dump at a time and
// additionally surfaces labels, transitions, gaps, and site updates as they
// happen.
package stream

import (
	"time"

	"github.com/incprof/incprof/internal/obs"
)

// A Sink consumes a typed stream. Emit ingests one value; Flush marks end of
// stream, releasing anything the sink buffered. Implementations are not
// required to be safe for concurrent use: a stream is a single logical
// sequence.
type Sink[T any] interface {
	Emit(v T) error
	Flush() error
}

// A Stage transforms a stream: it consumes In values and forwards derived
// Out values to the downstream sink bound with Start. A stage may fan one
// input into many outputs (the differencer's gap repair) or absorb inputs
// entirely (a reorder buffer holding a value back).
type Stage[In, Out any] interface {
	// Start binds the downstream sink; it must be called before the first
	// Emit.
	Start(down Sink[Out])
	Sink[In]
}

// Pipe binds a stage to its downstream sink and returns the stage as the
// upstream-facing sink, composing graphs right to left:
//
//	head := Pipe[A, B](stageAB, Pipe[B, C](stageBC, terminalC))
func Pipe[In, Out any](s Stage[In, Out], down Sink[Out]) Sink[In] {
	s.Start(down)
	return s
}

// SinkFunc adapts plain functions to the Sink interface; a nil OnFlush means
// flushing is a no-op.
type SinkFunc[T any] struct {
	OnEmit  func(T) error
	OnFlush func() error
}

// Emit implements Sink.
func (s SinkFunc[T]) Emit(v T) error { return s.OnEmit(v) }

// Flush implements Sink.
func (s SinkFunc[T]) Flush() error {
	if s.OnFlush == nil {
		return nil
	}
	return s.OnFlush()
}

// Discard is a Sink that drops everything — the terminal for graphs whose
// stages accumulate their results internally.
type Discard[T any] struct{}

// Emit implements Sink.
func (Discard[T]) Emit(T) error { return nil }

// Flush implements Sink.
func (Discard[T]) Flush() error { return nil }

// instrumented wraps a sink with per-stage observability: an item counter
// and a latency histogram (stream.<name>.items / stream.<name>.latency).
// Counts are deterministic for a fixed input; latencies are wall-clock and
// surface only in timing-enabled exports.
type instrumented[T any] struct {
	down  Sink[T]
	items *obs.Counter
	lat   *obs.Histogram
}

// Instrument wraps down in per-stage metrics under the given stage name.
func Instrument[T any](name string, down Sink[T]) Sink[T] {
	return &instrumented[T]{
		down:  down,
		items: obs.C("stream." + name + ".items"),
		lat:   obs.H("stream." + name + ".latency"),
	}
}

// Emit implements Sink.
func (i *instrumented[T]) Emit(v T) error {
	i.items.Inc()
	if i.lat == nil {
		return i.down.Emit(v)
	}
	start := time.Now()
	err := i.down.Emit(v)
	i.lat.Observe(time.Since(start))
	return err
}

// Flush implements Sink.
func (i *instrumented[T]) Flush() error { return i.down.Flush() }
