// Package mpi provides the message-passing substrate the paper's
// applications run on: symmetric ranks, each with its own virtual clock and
// instrumented runtime, synchronized through collectives.
//
// The paper's five applications are MPI programs ("all of the applications
// being used are symmetrically parallel and thus all processes behave
// similarly", §VI); their profiles include time spent waiting in
// communication. This substrate reproduces that structure: each rank is a
// goroutine owning an exec.Runtime; collectives block the goroutine until
// all ranks arrive, then advance every rank's virtual clock to the latest
// arrival time, charging the wait to an MPI pseudo-function so it shows up
// in profiles the way MPI library time does under gprof. The network is
// instantaneous: the paper never prices the interconnect.
package mpi

import (
	"fmt"
	"sync"

	"github.com/incprof/incprof/internal/exec"
	"github.com/incprof/incprof/internal/vclock"
)

// Names of the pseudo-functions MPI time is charged to.
const (
	FuncBarrier   = "MPI_Barrier"
	FuncAllreduce = "MPI_Allreduce"
	FuncBcast     = "MPI_Bcast"
	FuncSendRecv  = "MPI_Sendrecv"
)

// IsMPIFunc reports whether name is one of the MPI pseudo-functions, which
// analyses may wish to exclude from feature spaces.
func IsMPIFunc(name string) bool {
	switch name {
	case FuncBarrier, FuncAllreduce, FuncBcast, FuncSendRecv:
		return true
	}
	return false
}

// Op is a reduction operator for Allreduce.
type Op int

const (
	// Sum adds contributions elementwise.
	Sum Op = iota
	// Max takes the elementwise maximum.
	Max
	// Min takes the elementwise minimum.
	Min
)

// Config configures a communicator.
type Config struct {
	// Size is the number of ranks; must be >= 1.
	Size int
}

// Comm is a communicator over Size ranks.
type Comm struct {
	size int

	mu       sync.Mutex
	cond     *sync.Cond
	arrived  int
	gen      uint64
	maxTime  vclock.Time
	relTime  vclock.Time // release time of the completed generation
	inbox    [][]float64 // per-rank contribution slots
	outbox   [][]float64 // per-rank result slots
	aborted  bool
	abortErr error
}

// NewComm creates a communicator for size ranks.
func NewComm(cfg Config) (*Comm, error) {
	if cfg.Size < 1 {
		return nil, fmt.Errorf("mpi: size %d < 1", cfg.Size)
	}
	c := &Comm{
		size:   cfg.Size,
		inbox:  make([][]float64, cfg.Size),
		outbox: make([][]float64, cfg.Size),
	}
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Rank is one process of the parallel application.
type Rank struct {
	id   int
	comm *Comm
	rt   *exec.Runtime

	fnBarrier   exec.FuncID
	fnAllreduce exec.FuncID
	fnBcast     exec.FuncID
	fnSendRecv  exec.FuncID
}

// ID returns the rank number in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.comm.size }

// Runtime returns the rank's instrumented runtime.
func (r *Rank) Runtime() *exec.Runtime { return r.rt }

// abortPanic is the value rendezvous throws in ranks blocked on a
// collective when the communicator aborts. It marks the panic as
// secondary — the rank died because another rank failed — so Run can
// attribute the run's failure to the rank that actually caused it rather
// than to whichever victim's recover fired first.
type abortPanic struct{ err error }

// Run starts size ranks, each on its own goroutine with a fresh runtime,
// and waits for all to finish. setup, if non-nil, runs on each rank's
// runtime before body (e.g. to attach profilers). A panic in any rank aborts
// the communicator — blocked collectives in other ranks then panic too —
// and Run reports the originating failure: secondary abort panics are not
// recorded against the ranks they unblocked, and if several ranks genuinely
// failed, the lowest rank's error is returned (the same lowest-index rule
// par.ForError follows).
func Run(cfg Config, setup func(r *Rank), body func(r *Rank)) error {
	comm, err := NewComm(cfg)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, cfg.Size)
	for id := 0; id < cfg.Size; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(abortPanic); ok {
						// Collateral damage from another rank's failure;
						// the causing rank records the root error.
						return
					}
					err := fmt.Errorf("mpi: rank %d panicked: %v", id, p)
					errs[id] = err
					comm.abort(err)
				}
			}()
			r := newRank(id, comm)
			if setup != nil {
				setup(r)
			}
			body(r)
		}(id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func newRank(id int, comm *Comm) *Rank {
	rt := exec.New(nil)
	return &Rank{
		id:          id,
		comm:        comm,
		rt:          rt,
		fnBarrier:   rt.Register(FuncBarrier),
		fnAllreduce: rt.Register(FuncAllreduce),
		fnBcast:     rt.Register(FuncBcast),
		fnSendRecv:  rt.Register(FuncSendRecv),
	}
}

func (c *Comm) abort(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.aborted {
		c.aborted = true
		c.abortErr = err
	}
	c.cond.Broadcast()
}

// rendezvous blocks until all ranks have arrived with their local times and
// optional payloads, then returns the generation's release time (max arrival
// time). The last arriver runs reduce over the payload slots before
// releasing everyone.
func (c *Comm) rendezvous(id int, t vclock.Time, payload []float64, reduce func(in [][]float64, out [][]float64)) vclock.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.aborted {
		panic(abortPanic{c.abortErr})
	}
	gen := c.gen
	if t > c.maxTime {
		c.maxTime = t
	}
	c.inbox[id] = payload
	c.arrived++
	if c.arrived == c.size {
		if reduce != nil {
			reduce(c.inbox, c.outbox)
		}
		c.relTime = c.maxTime
		c.arrived = 0
		c.maxTime = 0
		c.gen++
		c.cond.Broadcast()
		return c.relTime
	}
	for c.gen == gen && !c.aborted {
		c.cond.Wait()
	}
	if c.aborted {
		panic(abortPanic{c.abortErr})
	}
	return c.relTime
}

// sync performs a rendezvous attributed to fn, advancing the rank's clock to
// the release time.
func (r *Rank) sync(fn exec.FuncID, payload []float64, reduce func(in, out [][]float64)) {
	r.rt.Call(fn, func() {
		rel := r.comm.rendezvous(r.id, r.rt.Now(), payload, reduce)
		r.rt.WorkUntil(rel)
	})
}

// Barrier synchronizes all ranks; every clock advances to the latest
// arrival time, with the wait charged to MPI_Barrier.
func (r *Rank) Barrier() {
	r.sync(r.fnBarrier, nil, nil)
}

// Allreduce combines each rank's vals elementwise with op and returns the
// reduced vector on every rank. All ranks must pass equal lengths.
func (r *Rank) Allreduce(op Op, vals []float64) []float64 {
	in := append([]float64(nil), vals...)
	r.sync(r.fnAllreduce, in, func(inbox, outbox [][]float64) {
		n := len(inbox[0])
		for _, contrib := range inbox {
			if len(contrib) != n {
				panic(fmt.Sprintf("mpi: Allreduce length mismatch: %d vs %d", len(contrib), n))
			}
		}
		res := make([]float64, n)
		copy(res, inbox[0])
		for _, contrib := range inbox[1:] {
			for i, v := range contrib {
				switch op {
				case Sum:
					res[i] += v
				case Max:
					if v > res[i] {
						res[i] = v
					}
				case Min:
					if v < res[i] {
						res[i] = v
					}
				}
			}
		}
		for i := range outbox {
			outbox[i] = res
		}
	})
	out := r.comm.takeOut(r.id)
	return append([]float64(nil), out...)
}

// Bcast distributes root's vals to every rank and returns the received
// vector (root receives its own values back).
func (r *Rank) Bcast(root int, vals []float64) []float64 {
	var in []float64
	if r.id == root {
		in = append([]float64(nil), vals...)
	}
	r.sync(r.fnBcast, in, func(inbox, outbox [][]float64) {
		for i := range outbox {
			outbox[i] = inbox[root]
		}
	})
	out := r.comm.takeOut(r.id)
	return append([]float64(nil), out...)
}

// RingExchange sends vals to rank (id+1) mod size and returns the vector
// received from rank (id-1+size) mod size — the halo-exchange pattern of the
// stencil applications.
func (r *Rank) RingExchange(vals []float64) []float64 {
	in := append([]float64(nil), vals...)
	size := r.comm.size
	r.sync(r.fnSendRecv, in, func(inbox, outbox [][]float64) {
		for dst := 0; dst < size; dst++ {
			src := (dst - 1 + size) % size
			outbox[dst] = inbox[src]
		}
	})
	out := r.comm.takeOut(r.id)
	return append([]float64(nil), out...)
}

func (c *Comm) takeOut(id int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.outbox[id]
	return out
}
