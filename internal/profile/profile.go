// Package profile defines the format-neutral profile sample every frontend
// decodes into and the one streaming analysis core consumes: a timestamped,
// cumulative per-site utilization snapshot with Seq identity.
//
// A Sample holds, per function, the sampled self-time histogram count, the
// exact self time (an extension real sampling profilers cannot provide; used
// for ablations), and the call count — plus caller→callee arcs. Samples are
// cumulative since program start, exactly like gmon.out or a Go CPU profile
// taken mid-run: package interval turns consecutive samples into
// per-interval profiles by subtraction, so any profiler that can emit a
// cumulative dump once per interval can drive phase detection.
//
// The package also owns the canonical binary serialization (Encode/Decode)
// — the repository's internal wire format, used by the dump stores and the
// checkpoint WAL — and the Format registry through which frontends (gmon,
// pprof, perf script, ...) plug their own on-disk encodings into the dump
// readers. The analysis core never names a frontend: everything downstream
// of a Format.Decode call sees only *Sample.
package profile

import (
	"sort"
	"time"
)

// FuncRecord is the per-function content of a sample.
type FuncRecord struct {
	Name string
	// Samples is the number of profiling-clock samples attributed to the
	// function, cumulative since program start. Sampled self time is
	// Samples * SamplePeriod.
	Samples int64
	// SelfTime is the exactly-accounted self time (not available from
	// real sampling profilers; kept for the feature-choice ablation).
	SelfTime time.Duration
	// Calls is the number of invocations, cumulative since program start
	// (gprof's mcount). Frontends whose format carries no call counts
	// leave it zero.
	Calls int64
}

// Arc is a call-graph edge with an invocation count.
type Arc struct {
	Caller string
	Callee string
	Count  int64
}

// Sample is one cumulative profile dump.
type Sample struct {
	// Seq is the dump's sequence number (0-based interval index). A
	// frontend decoder whose container carries no sequence number returns
	// SeqUnassigned; the directory readers then assign the number parsed
	// from the dump's file name.
	Seq int
	// Timestamp is the virtual time of the dump since run start.
	Timestamp time.Duration
	// SamplePeriod is the profiling clock period in effect.
	SamplePeriod time.Duration
	// Funcs holds per-function records sorted by name.
	Funcs []FuncRecord
	// Arcs holds call-graph edges sorted by (caller, callee).
	Arcs []Arc
}

// SeqUnassigned is the Seq sentinel a frontend decoder returns when its
// container format has no sequence number of its own (a bare pprof or perf
// file): the surrounding reader assigns the sequence from context, usually
// the file name.
const SeqUnassigned = -1

// FromSeconds converts a count of seconds read from text to a Duration,
// reporting false unless it is finite, non-negative and in range: the rule
// Decode applies to the canonical encoding's time fields, shared by every
// text frontend.
func FromSeconds(sec float64) (time.Duration, bool) {
	ns := sec * float64(time.Second)
	if !(ns >= 0 && ns < 1<<63) {
		return 0, false
	}
	return time.Duration(ns), true
}

// Normalize sorts the function records by name and arcs by (caller, callee)
// so that samples compare and encode deterministically.
func (s *Sample) Normalize() {
	sort.Slice(s.Funcs, func(i, j int) bool { return s.Funcs[i].Name < s.Funcs[j].Name })
	sort.Slice(s.Arcs, func(i, j int) bool {
		if s.Arcs[i].Caller != s.Arcs[j].Caller {
			return s.Arcs[i].Caller < s.Arcs[j].Caller
		}
		return s.Arcs[i].Callee < s.Arcs[j].Callee
	})
}

// Func returns the record for name and whether it is present. Funcs must be
// sorted (see Normalize); samples produced by the profiler already are.
func (s *Sample) Func(name string) (FuncRecord, bool) {
	i := sort.Search(len(s.Funcs), func(i int) bool { return s.Funcs[i].Name >= name })
	if i < len(s.Funcs) && s.Funcs[i].Name == name {
		return s.Funcs[i], true
	}
	return FuncRecord{}, false
}

// SampledSelf returns the function's sampled self time
// (Samples × SamplePeriod).
func (s *Sample) SampledSelf(rec FuncRecord) time.Duration {
	return time.Duration(rec.Samples) * s.SamplePeriod
}

// TotalSampledSelf returns the sum of sampled self time over all functions.
func (s *Sample) TotalSampledSelf() time.Duration {
	var n int64
	for _, f := range s.Funcs {
		n += f.Samples
	}
	return time.Duration(n) * s.SamplePeriod
}

// Clone returns a deep copy of the sample.
func (s *Sample) Clone() *Sample {
	c := *s
	c.Funcs = append([]FuncRecord(nil), s.Funcs...)
	c.Arcs = append([]Arc(nil), s.Arcs...)
	return &c
}
