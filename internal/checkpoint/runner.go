// runner.go glues the manager to a live engine: WAL-ahead ingestion,
// periodic snapshots, shed accounting, and crash recovery with WAL replay.
// The Runner is the durable form of the engine's Sink shape — cmd/phasedetect
// -follow with -checkpoint-dir feeds it exactly where it would feed the
// engine directly.
package checkpoint

import (
	"fmt"
	"sort"
	"sync"

	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/stream"
)

// RunnerOptions configures Start/Resume.
type RunnerOptions struct {
	// Config fingerprints the analysis; Resume refuses state written
	// under a different config.
	Config Config
	// Engine constructs (or restores) the underlying stream engine.
	Engine stream.Options
	// Every takes a snapshot after that many accepted dumps; 0 takes no
	// periodic snapshot (the WAL alone carries durability).
	Every int
}

// Runner is a durable engine: every accepted dump is WAL-logged before the
// engine sees it, snapshots are taken every Every dumps, and sheds are
// recorded so a resuming tailer skips them. A mutex serializes the public
// methods, because an admission queue calls Emit from its consumer goroutine
// while RecordShed and Seen arrive from the producer side.
type Runner struct {
	mgr  *Manager
	eng  *stream.Engine
	opts RunnerOptions

	mu          sync.Mutex
	accepted    int // dumps accepted into the engine, ever
	sinceSave   int
	lastSeq     int
	seen        map[int]bool
	replayed    int
	saveOnFlush bool
}

// Start opens a fresh or dirty state directory and returns a runner ready
// to ingest: on a dirty directory it recovers — newest valid snapshot, WAL
// replay through a restored engine — and on an empty one it starts a fresh
// engine whose WAL begins at generation 0, so even a run that dies before
// its first snapshot recovers entirely from the WAL.
func Start(mgr *Manager, opts RunnerOptions) (*Runner, *Recovery, error) {
	rec, err := mgr.Recover(&opts.Config)
	if err != nil {
		return nil, nil, err
	}
	r := &Runner{mgr: mgr, opts: opts, lastSeq: -1, seen: make(map[int]bool)}
	if rec.Snapshot != nil {
		snap := rec.Snapshot
		r.eng, err = stream.Restore(opts.Engine, snap.Engine)
		if err != nil {
			return nil, nil, err
		}
		r.accepted = snap.Accepted
		r.lastSeq = snap.LastSeq
		for _, seq := range snap.SeenSeqs {
			r.seen[seq] = true
		}
	} else {
		r.eng = stream.New(opts.Engine)
	}
	// Replay the WAL through the engine: the records were accepted by the
	// previous process after its last snapshot, so the engine must see
	// them again, in order, before any new dump.
	for _, wr := range rec.Records {
		if wr.Snap == nil {
			r.seen[wr.Shed] = true
			continue
		}
		if err := r.emit(wr.Snap); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: WAL replay: %w", err)
		}
		r.replayed++
	}
	obs.C("ckpt.replayed").Add(int64(r.replayed))
	return r, rec, nil
}

// emit feeds the engine and updates acceptance accounting (shared by replay
// and live ingestion; replay must not re-append to the WAL).
func (r *Runner) emit(s *profile.Sample) error {
	if err := r.eng.Emit(s); err != nil {
		return err
	}
	r.accepted++
	r.sinceSave++
	r.seen[s.Seq] = true
	if s.Seq > r.lastSeq {
		r.lastSeq = s.Seq
	}
	return nil
}

// Emit ingests one live dump durably: WAL append first, then the engine,
// then a snapshot when the cadence is due.
func (r *Runner) Emit(s *profile.Sample) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.mgr.Append(s); err != nil {
		return err
	}
	if err := r.emit(s); err != nil {
		return err
	}
	if r.opts.Every > 0 && r.sinceSave >= r.opts.Every {
		return r.save()
	}
	return nil
}

// RecordShed logs a deliberately-shed dump: its Seq joins the seen set (a
// resuming tailer must not re-ingest it — the gap it left is part of the
// accepted stream's history) and a WAL marker makes that durable.
func (r *Runner) RecordShed(s *profile.Sample) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen[s.Seq] = true
	obs.C("ckpt.shed").Inc()
	return r.mgr.AppendShed(s.Seq)
}

func (r *Runner) save() error {
	st, err := r.eng.State()
	if err != nil {
		return err
	}
	snap := &Snapshot{
		Config:   r.opts.Config,
		Accepted: r.accepted,
		LastSeq:  r.lastSeq,
		SeenSeqs: sortedSeqs(r.seen),
		Meta: Meta{
			Intervals: len(st.Profiles),
			Dims:      r.eng.Dims(),
			Gaps:      len(st.Differencer.Gaps),
			LateDrops: st.Differencer.LateDrops,
		},
		Engine: st,
	}
	if det := r.eng.Last(); det != nil {
		snap.Meta.K = det.K
	}
	if err := r.mgr.Save(snap); err != nil {
		return err
	}
	r.sinceSave = 0
	return nil
}

// SetSaveOnFlush arranges for Flush to take a final snapshot before the
// terminal refresh — graceful shutdown: the caller's stop signal fired, the
// report about to print covers a still-running stream, and a later resume
// must pick up exactly here without replaying the whole WAL.
func (r *Runner) SetSaveOnFlush(b bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.saveOnFlush = b
}

// Flush ends the stream (terminal refresh) without closing the state
// directory, so the Runner satisfies the Sink shape an Admission drains
// into; call Finish afterwards for the result (engine Flush is idempotent).
// With SetSaveOnFlush armed it snapshots first — the engine state is no
// longer exportable after its terminal refresh.
func (r *Runner) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.saveOnFlush {
		r.saveOnFlush = false
		if err := r.save(); err != nil {
			return err
		}
	}
	return r.eng.Flush()
}

// Finish flushes the engine and returns its terminal result, closing the
// manager. The final detection is recomputed by the flush (the batch code
// path), so no snapshot is needed at the end of a healthy run.
func (r *Runner) Finish() (*stream.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, err := r.eng.Finish()
	if cerr := r.mgr.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return res, err
}

// Engine exposes the underlying engine (Last, Dims, State).
func (r *Runner) Engine() *stream.Engine { return r.eng }

// Accepted returns the number of dumps accepted into the engine, including
// replayed ones.
func (r *Runner) Accepted() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.accepted
}

// Replayed returns how many WAL dumps recovery replayed at Start.
func (r *Runner) Replayed() int { return r.replayed }

// Seen reports whether a dump Seq has already been accepted or shed — the
// resuming tailer's skip predicate.
func (r *Runner) Seen(seq int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[seq]
}

func sortedSeqs(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
