// differencer.go is the ingest step of the streaming engine: cumulative
// profile samples in, per-interval profiles out, retaining only the previous
// kept snapshot (plus an optional bounded reorder window) instead of the
// whole dump list — O(1) memory in the run length where the batch
// differencers are O(n).
package stream

import (
	"container/heap"
	"fmt"

	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/obs"
)

// DifferencerOptions configures a Differencer.
type DifferencerOptions struct {
	// Robust selects the fault-tolerant differencing kernel
	// (interval.RobustStream, sharing DifferenceRobust's repair policies);
	// false selects the strict kernel (interval.StrictPair, sharing
	// Difference's validation), where any discontinuity is an error.
	Robust bool
	// Policy is the robust-mode repair policy for missing spans (default
	// GapSplit). Ignored in strict mode.
	Policy interval.GapPolicy
	// Reorder, when > 0, buffers up to that many snapshots and releases
	// them in ascending Seq order, absorbing transport-level reordering
	// (a live feed delivering dumps out of order) before the differencing
	// kernel sees it. Memory grows by the window size only. 0 disables the
	// window: snapshots difference in arrival order, exactly like the batch
	// paths.
	Reorder int
	// OnGap, when non-nil, receives each Gap as the stream repairs it —
	// the live path's discontinuity feed. Gaps are also accumulated and
	// returned by Gaps regardless.
	OnGap func(interval.Gap)
}

// Differencer turns cumulative snapshots into interval profiles, handing
// each completed profile to the function it was built with. It is not safe
// for concurrent use; a stream is a single logical sequence.
type Differencer struct {
	opts DifferencerOptions
	emit func(interval.Profile) error

	// Strict-mode state: the previous snapshot and the count of profiles
	// emitted (their Index values).
	prev *profile.Sample
	n    int

	// Robust-mode state.
	rs   *interval.RobustStream
	gaps []interval.Gap

	// Reorder window, a min-heap by Seq.
	window snapHeap
	depth  *obs.Gauge

	// released is the highest Seq already handed to the kernel, -1 before
	// the first. A snapshot arriving below it is beyond the bounded
	// window's reach: robust mode will discard it as a GapLate; lateDrops
	// counts those discards so they are never silent.
	released  int
	lateDrops int
}

// NewDifferencer returns a differencer that calls emit with every profile
// it completes, in stream order; an error from emit fails the Emit (or
// Flush) that completed the profile.
func NewDifferencer(opts DifferencerOptions, emit func(interval.Profile) error) *Differencer {
	d := &Differencer{opts: opts, emit: emit, released: -1}
	if opts.Reorder > 0 {
		d.depth = obs.G("stream.differencer.reorder.depth")
	}
	if opts.Robust {
		d.rs = interval.NewRobustStream(opts.Policy)
	}
	return d
}

// Emit ingests the next cumulative snapshot, handing every profile it
// completes to emit. In robust mode one snapshot may complete several
// profiles (a split gap repair) or none (a duplicate); in strict mode any
// discontinuity is an error, matching interval.Difference.
func (d *Differencer) Emit(s *profile.Sample) error {
	if d.opts.Reorder <= 0 {
		return d.ingest(s)
	}
	// A nil snapshot has no Seq to order by; robust mode drops it exactly
	// as the kernel would, strict mode rejects it below.
	if s == nil {
		return d.ingest(s)
	}
	heap.Push(&d.window, s)
	d.depth.SetMax(int64(d.window.Len()))
	if d.window.Len() <= d.opts.Reorder {
		return nil
	}
	return d.ingest(heap.Pop(&d.window).(*profile.Sample))
}

// ingest feeds one snapshot to the differencing kernel.
func (d *Differencer) ingest(s *profile.Sample) error {
	if s != nil && s.Seq > d.released {
		d.released = s.Seq
	}
	if d.rs != nil {
		profiles, gaps := d.rs.Push(s)
		for _, g := range gaps {
			if g.Kind == interval.GapLate {
				// The dump is discarded: it arrived after the bounded
				// window (or the unbuffered stream) had already released
				// past its Seq. Count it so the loss is visible in the
				// ops surface, not just buried in the gap list.
				d.lateDrops++
				obs.C("stream.differencer.late_dropped").Inc()
			}
			d.gaps = append(d.gaps, g)
			if obs.Enabled() {
				obs.C("interval.gaps." + g.Kind.String()).Inc()
			}
			if d.opts.OnGap != nil {
				d.opts.OnGap(g)
			}
		}
		for i := range profiles {
			if profiles[i].Repaired && obs.Enabled() {
				obs.C("interval.repaired." + d.opts.Policy.String()).Inc()
			}
			obs.C("interval.profiles").Inc()
			if err := d.emit(profiles[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if s == nil {
		return fmt.Errorf("stream: nil snapshot")
	}
	if d.prev != nil && s.Seq < d.prev.Seq {
		// Strict mode cannot absorb a dump the bounded reorder window
		// released past; fail with the real cause rather than the
		// timestamp-regression error StrictPair would report.
		d.lateDrops++
		obs.C("stream.differencer.late_dropped").Inc()
		return fmt.Errorf("stream: snapshot seq %d arrived after the reorder window (size %d) released seq %d; widen -reorder or run robust",
			s.Seq, d.opts.Reorder, d.prev.Seq)
	}
	p, err := interval.StrictPair(d.prev, s)
	if err != nil {
		return err
	}
	p.Index = d.n
	d.n++
	d.prev = s
	obs.C("interval.profiles").Inc()
	return d.emit(p)
}

// Flush drains the reorder window in Seq order through the kernel, then
// reports the robust stream's terminal validation error (all pushed
// snapshots unusable).
func (d *Differencer) Flush() error {
	for d.window.Len() > 0 {
		if err := d.ingest(heap.Pop(&d.window).(*profile.Sample)); err != nil {
			return err
		}
	}
	if d.rs != nil {
		return d.rs.Err()
	}
	return nil
}

// Profiles returns the number of profiles emitted so far.
func (d *Differencer) Profiles() int {
	if d.rs != nil {
		return d.rs.Profiles()
	}
	return d.n
}

// Gaps returns every gap repaired so far, in stream order — the robust
// batch path's Result.Gaps, grown incrementally. Nil in strict mode.
func (d *Differencer) Gaps() []interval.Gap { return d.gaps }

// LateDrops counts dumps discarded because they arrived with a Seq the
// stream had already released past — the bounded reorder window's loss
// surface. Robust mode records each as a GapLate gap too; strict mode fails
// on the first.
func (d *Differencer) LateDrops() int { return d.lateDrops }

// snapHeap orders buffered snapshots by Seq ascending; ties keep arrival
// order stable by comparing insertion stamps.
type snapHeap struct {
	items  []snapEntry
	serial int
}

type snapEntry struct {
	s      *profile.Sample
	serial int
}

func (h *snapHeap) Len() int { return len(h.items) }
func (h *snapHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.s.Seq != b.s.Seq {
		return a.s.Seq < b.s.Seq
	}
	return a.serial < b.serial
}
func (h *snapHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *snapHeap) Push(x any) {
	h.items = append(h.items, snapEntry{s: x.(*profile.Sample), serial: h.serial})
	h.serial++
}
func (h *snapHeap) Pop() any {
	n := len(h.items) - 1
	s := h.items[n].s
	h.items[n] = snapEntry{}
	h.items = h.items[:n]
	return s
}
