// Package exec provides the instrumented execution runtime on which the
// reproduction's workloads run.
//
// A Runtime plays the role that the compiled binary plus the glibc gprof
// runtime play in the paper: application functions are registered with it,
// calls are made through it (so call counts and the caller/callee stack are
// observable, like gprof's mcount hook), and computational work advances a
// virtual clock with the cost attributed to the running function (so a
// sampling profiler can observe where time is spent).
//
// Observers attach as Listeners. The profiler, the IncProf snapshot
// scheduler, and the AppEKG heartbeat auto-instrumentation are all
// listeners; running an application "uninstrumented" simply means running it
// with no listeners attached, which is the baseline for overhead
// measurements.
//
// A Runtime, like the Clock it drives, is owned by one goroutine (one MPI
// rank) and is not safe for concurrent use.
package exec

import (
	"fmt"
	"time"

	"github.com/incprof/incprof/internal/vclock"
)

// FuncID identifies a registered application function. IDs are dense and
// start at zero, so slices indexed by FuncID are the natural per-function
// storage for listeners.
type FuncID int

// NoFunc is the FuncID reported when no application function is executing.
const NoFunc FuncID = -1

// FuncInfo describes a registered function.
type FuncInfo struct {
	ID   FuncID
	Name string
}

// Listener observes execution events. Implementations must not call back
// into Runtime.Call or Runtime.Work; they may freely read the Runtime.
type Listener interface {
	// Enter is invoked when fn is called; the runtime's stack already
	// includes fn, so Caller() yields the call-graph parent.
	Enter(fn FuncID, now vclock.Time)
	// Exit is invoked when fn returns; fn is still on the stack.
	Exit(fn FuncID, now vclock.Time)
	// Advance is invoked when the running function fn accrues d of self
	// time, after the clock has moved to now but before timers due at now
	// fire.
	Advance(fn FuncID, d time.Duration, now vclock.Time)
}

// BaseListener is a no-op Listener suitable for embedding, so observers only
// implement the events they care about.
type BaseListener struct{}

// Enter implements Listener.
func (BaseListener) Enter(FuncID, vclock.Time) {}

// Exit implements Listener.
func (BaseListener) Exit(FuncID, vclock.Time) {}

// Advance implements Listener.
func (BaseListener) Advance(FuncID, time.Duration, vclock.Time) {}

// Runtime is the instrumented virtual-time execution environment.
type Runtime struct {
	clock     *vclock.Clock
	funcs     []FuncInfo
	byName    map[string]FuncID
	stack     []FuncID
	listeners []Listener
}

// New returns a Runtime driving the given clock. A nil clock allocates a
// fresh one.
func New(clock *vclock.Clock) *Runtime {
	if clock == nil {
		clock = vclock.New()
	}
	return &Runtime{clock: clock, byName: make(map[string]FuncID)}
}

// Clock returns the virtual clock the runtime drives.
func (r *Runtime) Clock() *vclock.Clock { return r.clock }

// Now returns the current virtual time.
func (r *Runtime) Now() vclock.Time { return r.clock.Now() }

// Register returns the FuncID for name, registering it on first use.
// Registration is idempotent: the same name always yields the same ID.
func (r *Runtime) Register(name string) FuncID {
	if name == "" {
		panic("exec: Register with empty name")
	}
	if id, ok := r.byName[name]; ok {
		return id
	}
	id := FuncID(len(r.funcs))
	r.funcs = append(r.funcs, FuncInfo{ID: id, Name: name})
	r.byName[name] = id
	return id
}

// Lookup returns the FuncID for name, or NoFunc and false if unregistered.
func (r *Runtime) Lookup(name string) (FuncID, bool) {
	id, ok := r.byName[name]
	if !ok {
		return NoFunc, false
	}
	return id, true
}

// FuncName returns the name of fn, or "<none>" for NoFunc. It panics on an
// out-of-range ID.
func (r *Runtime) FuncName(fn FuncID) string {
	if fn == NoFunc {
		return "<none>"
	}
	if fn < 0 || int(fn) >= len(r.funcs) {
		panic(fmt.Sprintf("exec: FuncName(%d) out of range", fn))
	}
	return r.funcs[fn].Name
}

// Funcs returns the registered functions in registration (ID) order. The
// returned slice is shared; callers must not modify it.
func (r *Runtime) Funcs() []FuncInfo { return r.funcs }

// NumFuncs returns the number of registered functions.
func (r *Runtime) NumFuncs() int { return len(r.funcs) }

// Current returns the executing function, or NoFunc outside any Call.
func (r *Runtime) Current() FuncID {
	if len(r.stack) == 0 {
		return NoFunc
	}
	return r.stack[len(r.stack)-1]
}

// Caller returns the call-graph parent of the executing function, or NoFunc
// at depth <= 1.
func (r *Runtime) Caller() FuncID {
	if len(r.stack) < 2 {
		return NoFunc
	}
	return r.stack[len(r.stack)-2]
}

// Stack returns a copy of the current call stack, outermost first.
func (r *Runtime) Stack() []FuncID {
	return append([]FuncID(nil), r.stack...)
}

// AddListener attaches an observer. Listeners receive events in attachment
// order.
func (r *Runtime) AddListener(l Listener) {
	if l == nil {
		panic("exec: AddListener(nil)")
	}
	r.listeners = append(r.listeners, l)
}

// RemoveListener detaches an observer previously attached with AddListener.
// It reports whether the listener was found.
func (r *Runtime) RemoveListener(l Listener) bool {
	for i, x := range r.listeners {
		if x == l {
			r.listeners = append(r.listeners[:i], r.listeners[i+1:]...)
			return true
		}
	}
	return false
}

// NumListeners returns the number of attached observers.
func (r *Runtime) NumListeners() int { return len(r.listeners) }

// Call executes body as an invocation of fn: it pushes fn, delivers Enter,
// runs body, then delivers Exit and pops, including when body panics.
func (r *Runtime) Call(fn FuncID, body func()) {
	if fn < 0 || int(fn) >= len(r.funcs) {
		panic(fmt.Sprintf("exec: Call of unregistered function %d", fn))
	}
	r.stack = append(r.stack, fn)
	now := r.clock.Now()
	for _, l := range r.listeners {
		l.Enter(fn, now)
	}
	defer func() {
		now := r.clock.Now()
		for _, l := range r.listeners {
			l.Exit(fn, now)
		}
		r.stack = r.stack[:len(r.stack)-1]
	}()
	body()
}

// Work advances the virtual clock by d, attributing the time as self time of
// the executing function. The advance is split at pending timer deadlines so
// that periodic observers (profile sampling, snapshot dumps, heartbeat
// flushes) fire at their exact virtual instants and observe all work up to
// those instants. Work panics when called outside any Call, which in the
// paper's terms would be time outside every profiled function.
func (r *Runtime) Work(d time.Duration) {
	if d < 0 {
		panic("exec: Work with negative duration")
	}
	cur := r.Current()
	if cur == NoFunc {
		panic("exec: Work outside of any Call")
	}
	for d > 0 {
		step := r.clock.StepFunc(d, func(step time.Duration, now vclock.Time) {
			for _, l := range r.listeners {
				l.Advance(cur, step, now)
			}
		})
		d -= step
	}
}

// WorkUntil advances the clock to the absolute virtual time t, attributing
// the elapsed time to the executing function. It is how MPI wait time is
// charged to communication pseudo-functions. A t at or before now is a
// no-op.
func (r *Runtime) WorkUntil(t vclock.Time) {
	if t <= r.clock.Now() {
		return
	}
	r.Work(t.Sub(r.clock.Now()))
}
