// Package incprof implements the paper's IncProf collector: the preloadable
// agent that, on a sleep/wakeup cycle, forces the gprof runtime to dump its
// cumulative profile and files each dump away under a unique per-interval
// name (paper §IV, Fig. 1).
//
// In this reproduction the "gprof runtime" is package profiler and the
// wakeup cycle is a virtual-clock ticker, so a collection run is
// deterministic. Dumps go to a Store; DirStore reproduces the paper's
// one-file-per-interval layout (gmon.out.N, optionally with the gprof-style
// textual flat profile next to it), while MemStore keeps snapshots in memory
// for the analysis pipeline.
package incprof

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/incprof/incprof/internal/exec"
	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/profiler"
	"github.com/incprof/incprof/internal/vclock"
)

// DefaultInterval is the paper's snapshot rate: one dump per second.
const DefaultInterval = time.Second

// Store receives cumulative snapshots as the collector dumps them.
type Store interface {
	// Put files away one snapshot. Implementations may assume ascending
	// Seq.
	Put(s *profile.Sample) error
	// Snapshots returns all stored snapshots in Seq order.
	Snapshots() ([]*profile.Sample, error)
}

// Sink receives dumped snapshots as a live stream, independent of storage —
// the attachment point for streaming analysis. The stream package's Engine
// satisfies it structurally, so a collector can feed phase detection while
// the run is still in progress.
type Sink interface {
	Emit(s *profile.Sample) error
}

// BatchSink is a Sink that also takes a run of consecutive dumps in one
// call, the io.WriterTo idiom: ReadDir and TailDir hand such a sink each
// read chunk's run of decoded dumps as one batch, and any other sink the
// same dumps one Emit at a time. The sink owns the dumps of a batch; it may
// set the slice's slots to nil as it consumes them, and the reader keeps no
// reference to them.
//
// EndPass marks the end of a directory pass: every pass that emitted a
// batch ends with one EndPass before the next pass lists the directory,
// however it ended — every listed dump emitted, a dump still being written,
// or TailOptions.Stop. Work a pass's batches make due (a live refresh) can
// wait for it, so a catch-up over a backlog does that work once.
type BatchSink interface {
	Sink
	EmitBatch(batch []*profile.Sample) error
	EndPass() error
}

// Options configures a Collector.
type Options struct {
	// Interval is the dump period; 0 means DefaultInterval.
	Interval time.Duration
	// Store receives the dumps; nil means a fresh MemStore.
	Store Store
	// Sink, when non-nil, additionally receives every snapshot as it is
	// dumped, whether or not the store accepted it: live analysis keeps
	// flowing even while storage is failing, and the robust analysis path
	// reconciles any divergence from what was persisted.
	Sink Sink
}

// Collector periodically dumps cumulative profiles from a Profiler.
//
// The dump/drop/retry counters are atomics: a store's Put retry may overlap
// a reader polling Dropped() from another goroutine (the fault suite's
// stress test does exactly that), and the per-rank counters are folded into
// run totals after mpi.Run joins — plain ints here were a data race waiting
// for a concurrent store.
type Collector struct {
	rt      *exec.Runtime
	prof    *profiler.Profiler
	store   Store
	sink    Sink
	ticker  *vclock.Ticker
	intvl   time.Duration
	dumps   atomic.Int64
	dropped atomic.Int64
	retries atomic.Int64
	encode  atomic.Int64 // host nanoseconds spent producing dumps
	mu      sync.Mutex   // guards lastErr and closed
	lastErr error
	closed  bool

	// Metric handles, resolved once at construction; nil no-ops when
	// observability is disabled.
	mDumps, mDropped, mRetries *obs.Counter
}

// New starts a collector over rt and prof. Dumping begins one interval from
// the current virtual time.
func New(rt *exec.Runtime, prof *profiler.Profiler, opts Options) *Collector {
	intvl := opts.Interval
	if intvl == 0 {
		intvl = DefaultInterval
	}
	if intvl < 0 {
		panic("incprof: negative interval")
	}
	st := opts.Store
	if st == nil {
		st = NewMemStore()
	}
	c := &Collector{
		rt: rt, prof: prof, store: st, sink: opts.Sink, intvl: intvl,
		mDumps:   obs.C("incprof.dumps"),
		mDropped: obs.C("incprof.dumps.dropped"),
		mRetries: obs.C("incprof.put.retries"),
	}
	// Dumps run at PriorityDump so that a profiling-clock tick landing on
	// the same instant is accounted before the snapshot is taken.
	c.ticker = rt.Clock().NewTickerPriority(intvl, vclock.PriorityDump, func(vclock.Time) { c.dump() })
	return c
}

func (c *Collector) dump() {
	start := time.Now()
	s := c.prof.Snapshot()
	err := c.store.Put(s)
	if err != nil {
		// One immediate retry: production stores fail transiently (a full
		// pipe, a reconnecting transport) far more often than permanently.
		c.retries.Add(1)
		c.mRetries.Inc()
		err = c.store.Put(s)
	}
	if err != nil {
		c.dropped.Add(1)
		c.mDropped.Inc()
		c.mu.Lock()
		if c.lastErr == nil {
			c.lastErr = err
		}
		c.mu.Unlock()
	}
	if c.sink != nil {
		// The live stream sees every dump, store outcome notwithstanding:
		// analysis latency must not couple to storage health. A sink
		// failure is remembered like a store failure but does not stop
		// collection.
		if serr := c.sink.Emit(s); serr != nil {
			c.mu.Lock()
			if c.lastErr == nil {
				c.lastErr = serr
			}
			c.mu.Unlock()
		}
	}
	c.dumps.Add(1)
	c.mDumps.Inc()
	c.encode.Add(int64(time.Since(start)))
}

// Interval returns the dump period.
func (c *Collector) Interval() time.Duration { return c.intvl }

// Dumps returns the number of snapshots taken so far. Safe to call
// concurrently with dumping.
func (c *Collector) Dumps() int { return int(c.dumps.Load()) }

// Dropped returns the number of dumps lost because Store.Put failed even
// after the retry. Err reports the first such failure; Dropped makes the
// full extent of the loss observable. Safe to call concurrently with
// dumping.
func (c *Collector) Dropped() int { return int(c.dropped.Load()) }

// Retries returns the number of Put retry attempts the collector made
// (whether or not the retry then succeeded). Safe to call concurrently with
// dumping.
func (c *Collector) Retries() int { return int(c.retries.Load()) }

// Halt stops the wakeup cycle without the final partial-interval snapshot
// Close takes — the collector simply dies mid-run, which is how the fault
// injector models a failing rank. Err and the counters remain readable.
// Like Close, only the first Halt/Close transition stops the ticker: vclock
// timers are not safe for concurrent Stop, so the closed flag serializes it.
func (c *Collector) Halt() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.ticker.Stop()
}

// HostEncodeTime returns the real (host) time spent taking and storing
// dumps; it feeds the overhead accounting in the evaluation harness.
func (c *Collector) HostEncodeTime() time.Duration { return time.Duration(c.encode.Load()) }

// Store returns the store receiving the dumps.
func (c *Collector) Store() Store { return c.store }

// Err returns the first storage error encountered, if any.
func (c *Collector) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// Close stops the wakeup cycle and, if virtual time has advanced past the
// last dump, takes one final partial-interval snapshot so the tail of the
// run is represented. It returns the first error encountered during the
// collection. Close is idempotent.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		defer c.mu.Unlock()
		return c.lastErr
	}
	c.closed = true
	c.mu.Unlock()
	c.ticker.Stop()
	last := time.Duration(c.dumps.Load()) * c.intvl
	if c.rt.Now().Duration() > last {
		c.dump()
	}
	return c.Err()
}

// MemStore keeps snapshots in memory.
type MemStore struct {
	snaps []*profile.Sample
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Put implements Store.
func (m *MemStore) Put(s *profile.Sample) error {
	m.snaps = append(m.snaps, s)
	return nil
}

// Snapshots implements Store.
func (m *MemStore) Snapshots() ([]*profile.Sample, error) {
	out := append([]*profile.Sample(nil), m.snaps...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// DirStore writes one dump file per interval — by default gmon.out.N in the
// canonical binary encoding, as the paper's collector renames dumps, with an
// optional gprof-style text report (gprof.txt.N) beside each. A DirStore
// opened with a registered profile.Format instead reads and writes that
// frontend's encoding under its own file naming (pprof.out.N, perf.out.N,
// ...); everything downstream of the load is format-blind.
type DirStore struct {
	dir         string
	textReports bool
	format      *profile.Format
}

// NewDirStore returns a store writing under dir, creating it if necessary.
// When textReports is set, a textual flat profile is written next to every
// binary dump, mirroring the paper's "invoke the gprof command line tool"
// post-processing step.
func NewDirStore(dir string, textReports bool) (*DirStore, error) {
	d, err := NewFormatDirStore(dir, nil)
	if err != nil {
		return nil, err
	}
	d.textReports = textReports
	return d, nil
}

// NewFormatDirStore returns a store reading and writing dumps under dir in
// the given registered format (nil falls back to the canonical gmon.out.N
// layout).
func NewFormatDirStore(dir string, f *profile.Format) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("incprof: creating store dir: %w", err)
	}
	return &DirStore{dir: dir, format: formatOr(f)}, nil
}

// formatOr returns f, or the canonical "gmon" format when f is nil.
func formatOr(f *profile.Format) *profile.Format {
	if f == nil {
		f, _ = profile.Lookup("gmon")
	}
	return f
}

// Dir returns the directory the store writes into.
func (d *DirStore) Dir() string { return d.dir }

// PathFor returns the path of the binary dump for the given sequence
// number; the fault injector uses it to corrupt files after they land.
func (d *DirStore) PathFor(seq int) string {
	return filepath.Join(d.dir, d.format.FileName(seq))
}

// Put implements Store.
func (d *DirStore) Put(s *profile.Sample) error {
	if err := writeDump(d.dir, d.format, s); err != nil {
		return err
	}
	if d.textReports {
		text, _ := profile.Lookup("gprof")
		return writeDump(d.dir, text, s)
	}
	return nil
}

// writeDump files s under dir in format f.
func writeDump(dir string, f *profile.Format, s *profile.Sample) error {
	if f.Encode == nil {
		return fmt.Errorf("incprof: format %q has no encoder", f.Name)
	}
	out, err := os.Create(filepath.Join(dir, f.FileName(s.Seq)))
	if err != nil {
		return err
	}
	if err := f.Encode(out, s); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Snapshots implements Store, reading back the binary dumps in Seq order
// (ReadDir, strict, on the full GOMAXPROCS decode budget). One unreadable
// or corrupt file fails it; read with ReadDir and Salvage set when degraded
// data should degrade, not abort, the run.
func (d *DirStore) Snapshots() ([]*profile.Sample, error) {
	return readAll(d.dir, d.format)
}

// readAll reads every dump of format f under dir, strictly, in Seq order.
func readAll(dir string, f *profile.Format) ([]*profile.Sample, error) {
	out := collect{}
	if _, err := ReadDir(dir, &out, TailOptions{Format: f}); err != nil {
		return nil, err
	}
	return out, nil
}

// collect is a Sink that keeps every snapshot in arrival order.
type collect []*profile.Sample

func (c *collect) Emit(s *profile.Sample) error {
	*c = append(*c, s)
	return nil
}

// symbols is the one symbol table of a read. Each dump decodes its own copy
// of every name; interning them as each decode finishes leaves one string
// per symbol across the read, and the copies garbage right away.
type symbols struct {
	mu    sync.Mutex
	names map[string]string
}

func (t *symbols) intern(s *profile.Sample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range s.Funcs {
		s.Funcs[i].Name = t.canonical(s.Funcs[i].Name)
	}
	for i := range s.Arcs {
		a := &s.Arcs[i]
		a.Caller, a.Callee = t.canonical(a.Caller), t.canonical(a.Callee)
	}
}

func (t *symbols) canonical(name string) string {
	if c, ok := t.names[name]; ok {
		return c
	}
	t.names[name] = name
	return name
}
