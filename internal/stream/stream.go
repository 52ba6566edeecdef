// Package stream is the incremental analysis engine: the paper's point is
// that profile analysis can keep pace with 1 Hz dumps, so phase structure is
// available while the application still runs, yet the original pipeline was
// strictly batch — every layer demanded the complete snapshot list up front.
// This package runs those layers as plain calls on one cumulative snapshot
// at a time:
//
//	Engine.EmitBatch → Differencer → interval.Profile → Engine.consume
//	  (Emit: a batch of one, then EndPass)               ├─ interval.MatrixBuilder (append-only rows, growing dims)
//	                                                     └─ labeller.label (live label: the row's nearest
//	                                                        candidate — last model's clusters, provisional phases)
//	  then, at EndPass, once R intervals have arrived: phase.Fit over the prefix
//	  (k sweep on ≤ 384 sampled rows, k selection), which becomes the live model;
//	  at Flush, phase.DetectMatrix over every row (k sweep, k selection, Algorithm 1)
//
// pipeline.Run feeds the engine from a snapshot source. A batch source is
// finite: pipeline.Analyze feeds an Engine from its snapshot list and the
// terminal refresh runs the identical phase.DetectMatrix call a batch
// phase.Detect performs, so for a fixed seed the streaming result is
// byte-identical to the batch result. A live source (cmd/phasedetect
// -follow, a collector Sink) feeds the same engine one dump or one read
// chunk at a time and additionally surfaces labels, transitions, gaps, and
// refreshed models as they happen.
package stream

import "github.com/incprof/incprof/internal/profile"

// A Sink consumes a stream of cumulative snapshots. Emit ingests one; Flush
// marks end of stream, releasing anything the sink buffered. The Engine, the
// Differencer, the Admission queue and the checkpoint Runner are all sinks.
// Implementations are not required to be safe for concurrent use: a stream
// is a single logical sequence.
type Sink interface {
	Emit(s *profile.Sample) error
	Flush() error
}
