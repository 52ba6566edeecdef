// state.go is the durability surface of the streaming engine: everything the
// engine accumulates between two accepted snapshots, exported as one plain
// serializable value and restorable into a fresh engine. The contract is
// exact resumption — an engine restored from State() and fed the rest of the
// stream produces a terminal Result byte-identical to the original engine
// running uninterrupted. internal/checkpoint persists these states (plus a
// WAL of the accepted snapshots since) to disk; this file owns only the
// in-memory capture.
//
// What is deliberately NOT part of the state:
//
//   - the feature matrix builder: it is a pure deterministic function of the
//     profile list and the engine options, so Restore rebuilds it by replay
//     instead of persisting a second copy of every row;
//   - any clustering model, including the last intermediate refresh's
//     (Engine.Last): every refresh refits its model from the profiles
//     alone, and the terminal Flush never reads the previous one;
//   - tracing spans: pure observability state.
package stream

import (
	"container/heap"
	"fmt"
	"sort"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/online"
	"github.com/incprof/incprof/internal/profile"
)

// EngineState is the full serializable state of an Engine between two
// accepted snapshots. All reference fields are deep-copied on export, so a
// state stays valid however the live engine moves on.
type EngineState struct {
	// Snaps counts snapshots emitted into the engine.
	Snaps int
	// SinceRefresh and Refreshes restore the refresh cadence mid-cycle.
	SinceRefresh int
	Refreshes    int
	// Profiles is every interval profile emitted so far; Restore replays
	// them through a fresh MatrixBuilder, so the matrix needs no separate
	// representation.
	Profiles []interval.Profile
	// Differencer is the differencer's state, including the pending
	// reorder window.
	Differencer DifferencerState
	// Tracker is the live label tracker's state, nil when the engine runs
	// without one (no OnLabel).
	Tracker *online.TrackerState
}

// DifferencerState is the serializable state of the snapshot→profile
// differencer.
type DifferencerState struct {
	// N and Prev are the strict kernel's state (profiles emitted, last
	// snapshot); Robust replaces them in robust mode.
	N      int
	Prev   *profile.Sample
	Robust *interval.RobustStreamState
	// Gaps is every discontinuity repaired so far, in stream order.
	Gaps []interval.Gap
	// Window holds the bounded reorder window's pending snapshots in
	// arrival order; re-pushing them in this order reproduces the heap's
	// release order exactly (ties release in arrival order).
	Window []*profile.Sample
	// Released is the highest Seq already handed to the kernel (-1 before
	// the first); LateDrops counts dumps discarded past the window bound.
	Released  int
	LateDrops int
}

// State exports the engine's full state. It must be called between Emit
// calls (the engine is not safe for concurrent use) and before Flush; a
// flushed engine has already discarded its incremental state into the
// terminal result.
func (e *Engine) State() (*EngineState, error) {
	if e.flushed {
		return nil, fmt.Errorf("stream: cannot export state of a flushed engine")
	}
	st := &EngineState{
		Snaps:        e.snaps,
		SinceRefresh: e.sinceRefresh,
		Refreshes:    e.refreshes,
		Profiles:     append([]interval.Profile(nil), e.profiles...),
		Differencer:  e.diff.state(),
	}
	if e.tracker != nil {
		st.Tracker = e.tracker.State()
	}
	return st, nil
}

// Restore builds an engine from an exported state, wired with opts exactly
// as New would. opts must describe the same analysis the exported engine
// ran (same phase options, robust/gap/reorder settings, refresh cadence):
// the engine cannot verify analysis equivalence itself — the checkpoint
// layer fingerprints the configuration for that — but structural mismatches
// (strict state into a robust engine or vice versa) are rejected here.
func Restore(opts Options, st *EngineState) (*Engine, error) {
	if opts.Robust != (st.Differencer.Robust != nil) {
		return nil, fmt.Errorf("stream: restore mode mismatch: engine robust=%v, state robust=%v",
			opts.Robust, st.Differencer.Robust != nil)
	}
	e := New(opts)
	e.snaps = st.Snaps
	e.sinceRefresh = st.SinceRefresh
	e.refreshes = st.Refreshes
	e.profiles = append([]interval.Profile(nil), st.Profiles...)
	// The builder is a deterministic function of (profiles, options):
	// replaying the profiles reproduces rows, dimension set, and growth
	// history exactly as the original engine built them one interval at a
	// time.
	for i := range e.profiles {
		e.builder.Add(&e.profiles[i])
	}
	if err := e.diff.restore(st.Differencer); err != nil {
		return nil, err
	}
	if e.tracker != nil && st.Tracker != nil {
		e.tracker.Restore(st.Tracker)
	}
	return e, nil
}

// state exports the differencer, deep-copying snapshots and gaps.
func (d *Differencer) state() DifferencerState {
	st := DifferencerState{
		N:         d.n,
		Gaps:      append([]interval.Gap(nil), d.gaps...),
		Released:  d.released,
		LateDrops: d.lateDrops,
	}
	if d.prev != nil {
		st.Prev = d.prev.Clone()
	}
	if d.rs != nil {
		rs := d.rs.State()
		st.Robust = &rs
	}
	if d.window.Len() > 0 {
		entries := append([]snapEntry(nil), d.window.items...)
		sort.Slice(entries, func(i, j int) bool { return entries[i].serial < entries[j].serial })
		for _, ent := range entries {
			st.Window = append(st.Window, ent.s.Clone())
		}
	}
	return st
}

// restore loads an exported state into the differencer in place (the engine
// holds a pointer to it, so it must not be replaced).
func (d *Differencer) restore(st DifferencerState) error {
	if (d.rs != nil) != (st.Robust != nil) {
		return fmt.Errorf("stream: differencer mode mismatch")
	}
	if len(st.Window) > 0 && d.opts.Reorder <= 0 {
		return fmt.Errorf("stream: state has %d pending reorder-window snapshots but the window is disabled", len(st.Window))
	}
	d.n = st.N
	d.gaps = append([]interval.Gap(nil), st.Gaps...)
	d.released = st.Released
	d.lateDrops = st.LateDrops
	if st.Prev != nil {
		d.prev = st.Prev.Clone()
	}
	if st.Robust != nil {
		d.rs = interval.RestoreRobustStream(*st.Robust)
	}
	// Re-pushing the pending snapshots in their original arrival order
	// reassigns fresh serials that preserve the original tie-break order,
	// so the window releases them exactly as the exported heap would have.
	d.window = snapHeap{}
	for _, s := range st.Window {
		heap.Push(&d.window, s.Clone())
	}
	return nil
}
