// Package obs is the pipeline's zero-dependency observability layer:
// hierarchical tracing spans, a typed metrics registry, and opt-in runtime
// profiling hooks. The rest of the repo reports into it; cmd/phasedetect and
// cmd/evaluate expose it through -trace and -metrics.
//
// Two rules govern the design:
//
//  1. Determinism. Span IDs derive from (seed, parent ID, name, key), never
//     from time or goroutine identity, and exporters sort siblings and
//     metric names, omitting wall-clock quantities by default. For a fixed
//     seed the exported trace tree and metrics snapshot are therefore
//     byte-identical at every -parallel setting — the same contract the
//     analysis results themselves honor. Quantities that legitimately vary
//     across runs (timings, pool high-water marks, runtime stats) are
//     registered as volatile and appear only when ExportOptions asks.
//
//  2. The disabled path is free. When obs is disabled (the default),
//     Start and the metric lookups return nil, every method is nil-safe,
//     and no call allocates — asserted by testing.AllocsPerRun — so the
//     library's published performance numbers are not polluted by its own
//     instrumentation. Building with -tags obs_off removes even the
//     enabled check, giving the benchmark regression gate a true no-op
//     baseline.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Config configures an enabled observability run.
type Config struct {
	// Seed feeds span-ID derivation so traces are reproducible; use the
	// same seed the clustering uses.
	Seed uint64
	// Clock overrides the span duration source (host wall clock by
	// default). Tests inject a fixed clock to make timings deterministic.
	Clock func() time.Time
}

// state is the whole observability world of one enabled run.
type state struct {
	cfg  Config
	reg  *Registry
	mu   sync.Mutex
	done []*Span // ended spans, in End order (re-sorted at export)
}

// global is nil while disabled; Enable swaps in a fresh state.
var global atomic.Pointer[state]

// Enable turns observability on with a fresh trace and metrics registry.
// Call it before the instrumented run starts (the CLIs do this when -trace
// or -metrics is given).
func Enable(cfg Config) {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	global.Store(&state{cfg: cfg, reg: NewRegistry()})
}

// Disable turns observability off and drops the collected state.
func Disable() {
	global.Store(nil)
}

// Enabled reports whether observability is collecting. With -tags obs_off it
// is a compile-time false, letting the compiler remove instrumentation.
func Enabled() bool {
	return !compiledOut && global.Load() != nil
}

// active returns the live state, or nil when disabled.
func active() *state {
	if compiledOut {
		return nil
	}
	return global.Load()
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters; span IDs are
// FNV-1a over (seed, parent, name, key).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// spanID derives a deterministic span ID.
func spanID(seed, parent uint64, name string, key uint64) uint64 {
	h := uint64(fnvOffset)
	h = hashUint64(h, seed)
	h = hashUint64(h, parent)
	h = hashString(h, name)
	h = hashUint64(h, key)
	return h
}
