package pipeline

import "time"

// The instrumentation prices behind Table I's overhead columns, so they can
// be computed deterministically inside the simulator.
//
// The paper measures wall-clock slowdown of real runs; in this reproduction
// the applications' compute is virtual, so a wall-clock ratio would compare
// instrumentation bookkeeping against nearly nothing. Instead each
// instrumentation event is charged a cost taken from what the corresponding
// real mechanism costs (see EXPERIMENTS.md for the calibration notes), and
// the overhead is the priced total relative to the uninstrumented virtual
// runtime. The real hot-path costs of this implementation are measured
// separately by the testing.B benchmarks.
const (
	// sampleInterruptCost is the cost of one profiling-clock interrupt
	// (gprof's SIGPROF handler: PC capture + histogram bump).
	sampleInterruptCost = 8 * time.Microsecond
	// mcountCost is the cost of one function-entry hook execution.
	mcountCost = 120 * time.Nanosecond
	// dumpWriteCost is the cost of one IncProf snapshot dump: forcing the
	// gmon write-out plus renaming the file on a shared filesystem — the
	// dominant term at the paper's one-dump-per-second rate.
	dumpWriteCost = 40 * time.Millisecond
	// beatHotPathCost is the cost of one begin/end heartbeat pair.
	beatHotPathCost = 350 * time.Nanosecond
	// flushWriteCost is the cost of one heartbeat interval flush record.
	flushWriteCost = 1 * time.Millisecond
)

// IncProfOverheadPct prices a profiled run against its uninstrumented
// virtual runtime.
func IncProfOverheadPct(res *CollectionResult) float64 {
	if res.VirtualRuntime <= 0 {
		return 0
	}
	cost := time.Duration(res.RepSamples)*sampleInterruptCost +
		time.Duration(res.RepCalls)*mcountCost +
		time.Duration(res.RepDumps)*dumpWriteCost
	return 100 * float64(cost) / float64(res.VirtualRuntime)
}

// HeartbeatOverheadPct prices a heartbeat-instrumented run against its
// virtual runtime.
func HeartbeatOverheadPct(res *HeartbeatResult) float64 {
	if res.VirtualRuntime <= 0 {
		return 0
	}
	beats := int64(0)
	if len(res.PerRankBeats) > 0 {
		beats = res.PerRankBeats[0]
	}
	flushes := int64(res.VirtualRuntime / time.Second)
	cost := time.Duration(beats)*beatHotPathCost + time.Duration(flushes)*flushWriteCost
	return 100 * float64(cost) / float64(res.VirtualRuntime)
}
