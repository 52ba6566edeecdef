// admission.go is the overload control of the live path: a bounded
// queue between a snapshot source (the directory tailer, a collector) and
// the analysis engine. Without it, a source faster than the analysis
// grows an unbounded backlog; with it, the operator chooses the failure
// mode explicitly:
//
//   - ShedBlock applies backpressure: Emit blocks until the engine drains a
//     slot. Nothing is ever lost; the source slows to the engine's pace.
//   - ShedDropOldest sheds load deterministically: the oldest pending dump
//     is discarded to admit the newest. A shed dump is never a silent loss —
//     its Seq simply goes missing from the accepted stream, so the robust
//     differencer records a GapMissing and repairs the span like any other
//     lost dump (shed-as-gap). DropOldest therefore requires a robust
//     downstream engine; a strict engine fails on the first gap.
//
// A stall watchdog bounds the other hazard of a live pipeline: an engine
// that stops returning (a wedged filesystem, a pathological refresh)
// would otherwise hang the source forever. When the in-flight Emit exceeds
// the stall budget the admission halts — producers get ErrStalled
// immediately instead of blocking — so the caller can save durable state
// and exit rather than hang. The checkpoint layer's WAL already holds every
// accepted dump, so a halt loses nothing that was admitted.
package stream

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/obs"
)

// ErrStalled reports that the admission's stall watchdog fired: the
// downstream engine did not accept an emitted snapshot within the stall
// budget, and the admission has halted rather than hang its producers.
var ErrStalled = errors.New("stream: analysis stage stalled; admission halted")

// ShedPolicy selects what a full admission queue does with the next arrival.
type ShedPolicy int

const (
	// ShedBlock blocks the producer until a slot frees (backpressure).
	ShedBlock ShedPolicy = iota
	// ShedDropOldest discards the oldest pending snapshot to admit the
	// newest; the dropped Seq surfaces as an ordinary repaired gap in the
	// robust engine downstream.
	ShedDropOldest
)

// String names the policy for flags and reports.
func (p ShedPolicy) String() string {
	switch p {
	case ShedBlock:
		return "block"
	case ShedDropOldest:
		return "drop-oldest"
	default:
		return fmt.Sprintf("ShedPolicy(%d)", int(p))
	}
}

// AdmissionOptions configures an Admission.
type AdmissionOptions struct {
	// MaxPending bounds the queue; 0 means 64.
	MaxPending int
	// Policy is the full-queue behavior (default ShedBlock).
	Policy ShedPolicy
	// Stall is the watchdog budget for one downstream Emit; 0 disables
	// the watchdog.
	Stall time.Duration
	// OnShed, when non-nil, receives every snapshot discarded by
	// ShedDropOldest, in shed order, on the producer's goroutine inside
	// its Emit. It is called without internal locks held and must not call
	// back into the Admission. An error it returns fails the stream: that
	// Emit returns it, and so do every later Emit and Flush.
	OnShed func(*profile.Sample) error
}

// Admission is the bounded queue. The producer side (Emit/Flush) may be
// used from one goroutine; a dedicated consumer goroutine drains the queue
// into the downstream sink serially, preserving arrival order of the
// admitted snapshots.
type Admission struct {
	opts AdmissionOptions
	down Sink

	mu      sync.Mutex
	notFull *sync.Cond
	hasWork *sync.Cond
	queue   []*profile.Sample
	closed  bool
	halted  bool
	err     error
	done    chan struct{}
	haltCh  chan struct{}

	shed     int
	admitted int
	busyAt   time.Time // consumer entered down.Emit; zero when idle

	depth *obs.Gauge
}

// NewAdmission starts the consumer (and, when configured, the watchdog) and
// returns the producer-facing sink.
func NewAdmission(down Sink, opts AdmissionOptions) *Admission {
	if opts.MaxPending <= 0 {
		opts.MaxPending = 64
	}
	a := &Admission{
		opts:   opts,
		down:   down,
		done:   make(chan struct{}),
		haltCh: make(chan struct{}),
		depth:  obs.GV("stream.admission.queue"),
	}
	a.notFull = sync.NewCond(&a.mu)
	a.hasWork = sync.NewCond(&a.mu)
	go a.consume()
	if opts.Stall > 0 {
		go a.watch()
	}
	return a
}

// Emit admits one snapshot, applying the shed policy when the queue is
// full. It returns ErrStalled after a watchdog halt, the downstream error
// once the consumer has hit one, and the OnShed error once a shed record
// has failed.
func (a *Admission) Emit(s *profile.Sample) error {
	var shed *profile.Sample
	a.mu.Lock()
	for {
		switch {
		case a.halted:
			a.mu.Unlock()
			return ErrStalled
		case a.err != nil:
			err := a.err
			a.mu.Unlock()
			return err
		case a.closed:
			a.mu.Unlock()
			return fmt.Errorf("stream: admission closed")
		}
		if len(a.queue) < a.opts.MaxPending {
			break
		}
		if a.opts.Policy == ShedDropOldest {
			shed = a.queue[0]
			copy(a.queue, a.queue[1:])
			a.queue = a.queue[:len(a.queue)-1]
			a.shed++
			obs.CV("stream.admission.shed").Inc()
			break
		}
		a.notFull.Wait()
	}
	a.queue = append(a.queue, s)
	a.depth.SetMax(int64(len(a.queue)))
	a.hasWork.Signal()
	a.mu.Unlock()
	if shed != nil && a.opts.OnShed != nil {
		if err := a.opts.OnShed(shed); err != nil {
			a.fail(err)
			return err
		}
	}
	return nil
}

// fail records err as the stream's terminal error, unless one is already
// set, and wakes the consumer so it stops.
func (a *Admission) fail(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err == nil {
		a.err = err
	}
	a.hasWork.Broadcast()
	a.notFull.Broadcast()
}

// Flush marks end of stream, waits for the queue to drain and the
// downstream Flush to complete, and reports the consumer's terminal error
// (or ErrStalled if the watchdog halted the pipeline before or during the
// drain).
func (a *Admission) Flush() error {
	a.mu.Lock()
	a.closed = true
	a.hasWork.Broadcast()
	a.mu.Unlock()
	// A wedged consumer never closes done; the watchdog's halt channel
	// bounds the wait so Flush cannot hang either.
	select {
	case <-a.done:
	case <-a.haltCh:
		return ErrStalled
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.halted {
		return ErrStalled
	}
	return a.err
}

// Shed returns how many snapshots the drop-oldest policy discarded.
func (a *Admission) Shed() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.shed
}

// Admitted returns how many snapshots the consumer has handed downstream.
func (a *Admission) Admitted() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitted
}

// Halted reports whether the stall watchdog has fired.
func (a *Admission) Halted() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.halted
}

// consume drains the queue into the downstream sink serially.
func (a *Admission) consume() {
	defer close(a.done)
	for {
		a.mu.Lock()
		for len(a.queue) == 0 && !a.closed && !a.halted && a.err == nil {
			a.hasWork.Wait()
		}
		if a.halted || a.err != nil {
			a.mu.Unlock()
			return
		}
		if len(a.queue) == 0 {
			// Closed and drained: end of stream.
			a.mu.Unlock()
			if err := a.down.Flush(); err != nil {
				a.mu.Lock()
				a.err = err
				a.mu.Unlock()
			}
			return
		}
		s := a.queue[0]
		copy(a.queue, a.queue[1:])
		a.queue = a.queue[:len(a.queue)-1]
		a.depth.Set(int64(len(a.queue)))
		a.busyAt = time.Now()
		a.mu.Unlock()

		err := a.down.Emit(s)

		a.mu.Lock()
		a.busyAt = time.Time{}
		if err == nil {
			a.admitted++
		} else if a.err == nil { // a failed shed record may have come first
			a.err = err
		}
		a.notFull.Signal()
		a.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// watch is the stall watchdog: it halts the admission when one downstream
// Emit exceeds the stall budget, releasing any blocked producer with
// ErrStalled instead of hanging the pipeline.
func (a *Admission) watch() {
	tick := a.opts.Stall / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	for {
		time.Sleep(tick)
		a.mu.Lock()
		select {
		case <-a.done:
			a.mu.Unlock()
			return
		default:
		}
		if !a.busyAt.IsZero() && time.Since(a.busyAt) > a.opts.Stall {
			a.halted = true
			obs.CV("stream.admission.stalls").Inc()
			close(a.haltCh)
			a.notFull.Broadcast()
			a.hasWork.Broadcast()
			a.mu.Unlock()
			return
		}
		a.mu.Unlock()
	}
}
