package pipeline

import (
	"errors"
	"fmt"
	"os"

	"github.com/incprof/incprof/internal/checkpoint"
	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

// A Source produces a run's cumulative snapshots into sink, in Seq order,
// and reports what it fed. seen, when non-nil, reports the Seqs a resumed
// durable run already holds; the source leaves those out. A batch source is
// finite; a live one ends when its stream goes idle or is stopped.
type Source func(sink incprof.Sink, seen func(seq int) bool) (incprof.TailResult, error)

// snapshots is the source of an in-memory snapshot list, Analyze's: every
// item not yet seen, in order.
func snapshots(snaps []*profile.Sample) Source {
	return func(sink incprof.Sink, seen func(int) bool) (incprof.TailResult, error) {
		var res incprof.TailResult
		for _, s := range snaps {
			if seen != nil && seen(s.Seq) {
				continue
			}
			if err := sink.Emit(s); err != nil {
				return res, err
			}
			res.Emitted++
			res.Last = s
		}
		return res, nil
	}
}

// Durable puts the engine behind the checkpoint layer: every accepted dump
// is write-ahead logged and the engine state snapshots every Every dumps,
// so a killed run resumes where it stopped.
type Durable struct {
	// Dir is the state directory.
	Dir string
	// Every is the snapshot cadence in accepted dumps.
	Every int
	// NoSync disables fsync (tests and benchmarks only).
	NoSync bool
	// Resume continues from existing state in Dir. Without it a non-empty
	// Dir is refused, to catch accidental reuse.
	Resume bool
	// Config fingerprints the analysis; recovery refuses state written
	// under a different one.
	Config checkpoint.Config
	// OnRecover, when non-nil, observes the recovery once the WAL has
	// replayed into the engine.
	OnRecover func(rec *checkpoint.Recovery, replayed int)
}

// RunOptions configures Run. The zero value beyond Engine is the batch
// setting: the source feeds the engine directly.
type RunOptions struct {
	// Engine configures the streaming engine. Its callbacks stay silent
	// while a durable run replays its WAL: the previous process already
	// reported those dumps.
	Engine stream.Options
	// Durable, when non-nil, wraps the engine in the checkpoint layer.
	Durable *Durable
	// Admission, when non-nil, puts a bounded queue between the source
	// and the engine. A durable run records each shed dump before its
	// OnShed sees it; a failure to record ends the run with that error.
	Admission *stream.AdmissionOptions
	// OnDrained, when non-nil, is called once the source has ended and the
	// queue has drained, before the terminal refresh, with what the source
	// fed and how many dumps the queue shed.
	OnDrained func(fed incprof.TailResult, shed int)
}

// RunResult is the engine's terminal result plus what the source fed.
type RunResult struct {
	*stream.Result
	// Fed is the source's own account: emitted, skipped, last snapshot,
	// stopped.
	Fed incprof.TailResult
}

// ErrNoSnapshots reports a run that ended with nothing to analyze: the
// source fed no snapshot and no durable state held one.
var ErrNoSnapshots = errors.New("no snapshots found")

// Run is the one dumps-to-report path. It builds the sink stack — the
// engine, then the checkpoint runner when durable, then the admission queue
// when bounded — feeds it from src, drains it, and returns the engine's
// terminal result. Batch analysis (Analyze, phasedetect over a finished
// directory) and live analysis (phasedetect -follow, -resume) differ only in
// the source and in which layers the stack has, so their reports agree by
// construction. Run records no span of its own; the engine's spans hang
// under opts.Engine.Span.
func Run(src Source, opts RunOptions) (*RunResult, error) {
	var (
		eng    *stream.Engine
		runner *checkpoint.Runner
		inner  stream.Sink // runner when durable, engine otherwise
		seen   func(int) bool
	)
	if d := opts.Durable; d != nil {
		if !d.Resume {
			if entries, err := os.ReadDir(d.Dir); err == nil && len(entries) > 0 {
				return nil, fmt.Errorf("%s already holds checkpoint state; pass -resume to continue that run or clear the directory", d.Dir)
			}
		}
		mgr, err := checkpoint.Open(d.Dir, checkpoint.ManagerOptions{NoSync: d.NoSync})
		if err != nil {
			return nil, err
		}
		// Recovery replays the WAL through the engine; the previous
		// process already reported those dumps, so the callbacks stay
		// silent until it is done.
		replaying := true
		eopts := opts.Engine
		eopts.OnLabel = unlessReplaying(&replaying, eopts.OnLabel)
		eopts.OnRefresh = unlessReplaying(&replaying, eopts.OnRefresh)
		eopts.OnGap = unlessReplaying(&replaying, eopts.OnGap)
		var rec *checkpoint.Recovery
		runner, rec, err = checkpoint.Start(mgr, checkpoint.RunnerOptions{Config: d.Config, Engine: eopts, Every: d.Every})
		if err != nil {
			return nil, err
		}
		replaying = false
		if d.OnRecover != nil {
			d.OnRecover(rec, runner.Replayed())
		}
		eng, inner, seen = runner.Engine(), runner, runner.Seen
	} else {
		eng = stream.New(opts.Engine)
		inner = eng
	}

	var adm *stream.Admission
	var head incprof.Sink = inner
	if opts.Admission != nil {
		aopts := *opts.Admission
		if runner != nil {
			onShed := aopts.OnShed
			aopts.OnShed = func(s *profile.Sample) error {
				if err := runner.RecordShed(s); err != nil {
					return fmt.Errorf("recording shed dump: %w", err)
				}
				if onShed != nil {
					return onShed(s)
				}
				return nil
			}
		}
		adm = stream.NewAdmission(inner, aopts)
		head = adm
	}

	fed, err := src(head, seen)
	if errors.Is(err, stream.ErrStalled) || (adm != nil && adm.Halted()) {
		return nil, stream.ErrStalled
	}
	if err != nil {
		return nil, err
	}
	if fed.Stopped && runner != nil {
		runner.SetSaveOnFlush(true)
	}
	if fed.Emitted == 0 && (runner == nil || runner.Accepted() == 0) {
		return nil, ErrNoSnapshots
	}
	shed := 0
	if adm != nil {
		if err := adm.Flush(); err != nil {
			return nil, err
		}
		shed = adm.Shed()
	}
	if opts.OnDrained != nil {
		opts.OnDrained(fed, shed)
	}
	var r *stream.Result
	if runner != nil {
		r, err = runner.Finish()
	} else {
		r, err = eng.Finish()
	}
	if err != nil {
		return nil, err
	}
	return &RunResult{Result: r, Fed: fed}, nil
}

// unlessReplaying mutes an engine callback while *replaying is set; a nil
// callback stays nil, because the engine labels intervals only when OnLabel
// is set. A muted OnLabel still labels each replayed interval, so the
// provisional live phases it founds are the ones the crashed run had.
func unlessReplaying[T any](replaying *bool, f func(T)) func(T) {
	if f == nil {
		return nil
	}
	return func(v T) {
		if !*replaying {
			f(v)
		}
	}
}
