// Package profiler implements the gprof data-collection model over the
// instrumented execution runtime.
//
// Like gprof, it combines two mechanisms (paper §IV):
//
//   - a sampling profiling clock: a periodic virtual timer attributes one
//     sample to whichever function is executing when it fires, yielding the
//     per-function self-time histogram with sampling quantization (short
//     functions can be missed, exactly as with real gprof);
//   - function-entry instrumentation (mcount): exact call counts and
//     caller→callee arc counts.
//
// The profiler additionally keeps exactly-accounted self time from the
// runtime's Advance events. Real gprof cannot provide this; it exists for
// the feature-choice ablation (DESIGN.md A3) and for tests that need ground
// truth to compare the sampled histogram against.
//
// Snapshot produces a cumulative profile.Sample, which is what the IncProf
// collector dumps once per interval.
package profiler

import (
	"time"

	"github.com/incprof/incprof/internal/exec"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/vclock"
)

// DefaultSamplePeriod matches gprof's customary 100 Hz profiling clock.
const DefaultSamplePeriod = 10 * time.Millisecond

type arcKey struct {
	caller exec.FuncID
	callee exec.FuncID
}

// Profiler collects gprof-style cumulative profile data from a Runtime.
type Profiler struct {
	rt     *exec.Runtime
	period time.Duration
	ticker *vclock.Ticker

	samples  []int64 // indexed by FuncID
	selfTime []time.Duration
	calls    []int64
	arcs     map[arcKey]int64

	idleSamples int64 // profiling-clock ticks with no function executing
	dumps       int   // snapshots taken so far; becomes the next Seq
	stopped     bool
}

// New attaches a profiler to rt with the given sampling period (0 means
// DefaultSamplePeriod). The profiler starts collecting immediately.
func New(rt *exec.Runtime, period time.Duration) *Profiler {
	if period < 0 {
		panic("profiler: negative sample period")
	}
	if period == 0 {
		period = DefaultSamplePeriod
	}
	p := &Profiler{rt: rt, period: period, arcs: make(map[arcKey]int64)}
	rt.AddListener(p)
	p.ticker = rt.Clock().NewTickerPriority(period, vclock.PrioritySampler, p.sampleTick)
	return p
}

// SamplePeriod returns the profiling clock period.
func (p *Profiler) SamplePeriod() time.Duration { return p.period }

// Stop detaches the profiler from the runtime; collected data remains
// available via Snapshot. Stop is idempotent.
func (p *Profiler) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	p.ticker.Stop()
	p.rt.RemoveListener(p)
}

// sampleTick is the profiling clock interrupt: charge one sample to the
// running function.
func (p *Profiler) sampleTick(vclock.Time) {
	fn := p.rt.Current()
	if fn == exec.NoFunc {
		p.idleSamples++
		return
	}
	p.grow(fn)
	p.samples[fn]++
}

// grow ensures the per-function slices cover fn, since functions may be
// registered after the profiler attaches.
func (p *Profiler) grow(fn exec.FuncID) {
	need := int(fn) + 1
	for len(p.samples) < need {
		p.samples = append(p.samples, 0)
		p.selfTime = append(p.selfTime, 0)
		p.calls = append(p.calls, 0)
	}
}

// Enter implements exec.Listener: the mcount hook.
func (p *Profiler) Enter(fn exec.FuncID, _ vclock.Time) {
	p.grow(fn)
	p.calls[fn]++
	if caller := p.rt.Caller(); caller != exec.NoFunc {
		p.arcs[arcKey{caller, fn}]++
	}
}

// Exit implements exec.Listener.
func (p *Profiler) Exit(exec.FuncID, vclock.Time) {}

// Advance implements exec.Listener: exact self-time accounting.
func (p *Profiler) Advance(fn exec.FuncID, d time.Duration, _ vclock.Time) {
	p.grow(fn)
	p.selfTime[fn] += d
}

// TotalSamples reports all profiling-clock ticks so far (busy + idle) — the
// number of SIGPROF-equivalent interrupts the overhead model charges for.
func (p *Profiler) TotalSamples() int64 {
	n := p.idleSamples
	for _, s := range p.samples {
		n += s
	}
	return n
}

// TotalCalls reports all instrumented calls so far — the number of mcount
// executions the overhead model charges for.
func (p *Profiler) TotalCalls() int64 {
	var n int64
	for _, c := range p.calls {
		n += c
	}
	return n
}

// Calls returns the cumulative call count for fn.
func (p *Profiler) Calls(fn exec.FuncID) int64 {
	if int(fn) >= len(p.calls) || fn < 0 {
		return 0
	}
	return p.calls[fn]
}

// Samples returns the cumulative sample count for fn.
func (p *Profiler) Samples(fn exec.FuncID) int64 {
	if int(fn) >= len(p.samples) || fn < 0 {
		return 0
	}
	return p.samples[fn]
}

// SelfTime returns the exactly-accounted cumulative self time for fn.
func (p *Profiler) SelfTime(fn exec.FuncID) time.Duration {
	if int(fn) >= len(p.selfTime) || fn < 0 {
		return 0
	}
	return p.selfTime[fn]
}

// Snapshot returns the cumulative profile as of the current virtual time.
// Sequence numbers increment per call, mirroring IncProf's per-interval file
// naming. The result is normalized (sorted) and independent of the
// profiler's internal state.
func (p *Profiler) Snapshot() *profile.Sample {
	s := &profile.Sample{
		Seq:          p.dumps,
		Timestamp:    p.rt.Now().Duration(),
		SamplePeriod: p.period,
	}
	p.dumps++
	funcs := p.rt.Funcs()
	s.Funcs = make([]profile.FuncRecord, 0, len(funcs))
	for _, fi := range funcs {
		s.Funcs = append(s.Funcs, profile.FuncRecord{
			Name:     fi.Name,
			Samples:  p.Samples(fi.ID),
			SelfTime: p.SelfTime(fi.ID),
			Calls:    p.Calls(fi.ID),
		})
	}
	s.Arcs = make([]profile.Arc, 0, len(p.arcs))
	for k, n := range p.arcs {
		s.Arcs = append(s.Arcs, profile.Arc{
			Caller: p.rt.FuncName(k.caller),
			Callee: p.rt.FuncName(k.callee),
			Count:  n,
		})
	}
	s.Normalize()
	return s
}
