// state.go is the durability surface of the streaming engine: everything the
// engine accumulates between two accepted snapshots, exported as one plain
// serializable value and restorable into a fresh engine. The contract is
// exact resumption — an engine restored from State() and fed the rest of the
// stream produces a terminal Result byte-identical to the original engine
// running uninterrupted. internal/checkpoint persists these states (plus a
// WAL of the accepted snapshots since) to disk; this file owns only the
// in-memory capture.
//
// The last intermediate refresh's model is part of the state: live labels
// come from it until the next refresh, and Engine.Last reports it. The
// state keeps what those read — K, WCSS and the centroids, in live phase-ID
// order, with the names of their columns — plus the provisional live
// phases and the previous label, so its size does not grow with the run.
//
// What is deliberately NOT part of the state:
//
//   - the feature matrix: Restore adds the rows to a fresh MatrixBuilder,
//     which rebuilds dimensions and columns from them;
//   - the model's per-row Assign: every refresh refits its model from the
//     profiles alone, and the terminal Flush never reads the previous one;
//   - tracing spans: pure observability state.
package stream

import (
	"container/heap"
	"fmt"
	"sort"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
)

// EngineState is the full serializable state of an Engine between two
// accepted snapshots. Every reference field but Profiles is deep-copied on
// export, and Profiles only ever grows, so a state stays valid however the
// live engine moves on.
type EngineState struct {
	// Snaps counts snapshots emitted into the engine.
	Snaps int
	// SinceRefresh and Refreshes restore the refresh cadence mid-cycle.
	SinceRefresh int
	Refreshes    int
	// Profiles is every interval emitted so far, as rows of the engine's
	// store; Restore adds them to a fresh MatrixBuilder, so the matrix
	// needs no separate representation. The checkpoint layer keeps them in
	// its profile segment, not in the snapshot's JSON.
	Profiles []interval.Row
	// Differencer is the differencer's state, including the pending
	// reorder window.
	Differencer DifferencerState
	// Model is the last intermediate refresh's model (Engine.Last), nil
	// before the first. It keeps K and WCSS, and its centroids in live
	// phase-ID order, but not the per-row Assign.
	Model *phase.Model
	// Funcs names the feature columns of Model's centroids and of
	// Provisional.
	Funcs []string
	// Provisional holds the live phases founded since the last refresh,
	// one centroid each.
	Provisional [][]float64
	// Prev is the previous interval's live label, nil when there is none:
	// before the first label, and just after a refresh.
	Prev *int
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
		Profiles:     e.builder.Rows(),
		Differencer:  e.diff.state(),
		Funcs:        append([]string(nil), e.live.funcs...),
		Provisional:  cloneRows(e.live.cents[e.live.k:]),
	}
	if e.last != nil {
		st.Model = &phase.Model{
			K:         e.last.K,
			WCSS:      append([]float64(nil), e.last.WCSS...),
			Centroids: cloneRows(e.live.cents[:e.live.k]),
		}
	}
	if e.live.prev >= 0 {
		prev := e.live.prev
		st.Prev = &prev
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
	// The builder is a deterministic function of (rows, options): adding
	// the rows again reproduces cells, dimension set, and growth history
	// exactly as the original engine built them one interval at a time.
	var cells []interval.Cell
	for i := range st.Profiles {
		r := &st.Profiles[i]
		cells = r.Cells(cells[:0])
		e.builder.AddCells(r.Start, r.End, r.Repaired, cells, r.Name)
	}
	if err := e.diff.restore(st.Differencer); err != nil {
		return nil, err
	}
	if err := e.live.restore(st, e.builder.FuncNames()); err != nil {
		return nil, err
	}
	if st.Model != nil {
		md := *st.Model
		md.WCSS = append([]float64(nil), md.WCSS...)
		md.Centroids = cloneRows(md.Centroids)
		e.last = &md
	}
	return e, nil
}

// restore loads the live model, the provisional phases and the previous
// label from st, after checking that every centroid spans Funcs and that
// Funcs are columns of the restored builder, whose columns are dims.
func (l *labeller) restore(st *EngineState, dims []string) error {
	col := make(map[string]bool, len(dims))
	for _, fn := range dims {
		col[fn] = true
	}
	for _, fn := range st.Funcs {
		if !col[fn] {
			return fmt.Errorf("stream: state names column %q, which its profiles never fill", fn)
		}
	}
	var cents [][]float64
	if st.Model != nil {
		cents = append(cents, st.Model.Centroids...)
	}
	cents = append(cents, st.Provisional...)
	for _, c := range cents {
		if len(c) != len(st.Funcs) {
			return fmt.Errorf("stream: state centroid spans %d columns, not its %d", len(c), len(st.Funcs))
		}
	}
	l.funcs = append([]string(nil), st.Funcs...)
	l.cents = cloneRows(cents)
	l.k = len(cents) - len(st.Provisional)
	l.prev = -1
	if st.Prev != nil {
		l.prev = *st.Prev
	}
	return nil
}

// cloneRows deep-copies a list of vectors.
func cloneRows(rows [][]float64) [][]float64 {
	if rows == nil {
		return nil
	}
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
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
