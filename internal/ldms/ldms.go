// Package ldms is a lightweight reproduction of the LDMS (Lightweight
// Distributed Metric Service) data-collection substrate AppEKG integrates
// with (paper §III-A).
//
// Like LDMS, it is pull-based: samplers expose metric sets; an aggregator
// collects them on an interval and forwards the sets to storage plugins.
// Two transports are provided — in-process (the sampler is called directly)
// and TCP (newline-delimited JSON over net.Conn, a stand-in for LDMS's RDMA
// / sockets transports) — plus in-memory and CSV storage plugins.
package ldms

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/vclock"
)

// Metric is one named value.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// MetricSet is a named group of metrics from one producer at one time.
type MetricSet struct {
	// Producer identifies the originating process (e.g. "rank3").
	Producer string `json:"producer"`
	// Name identifies the schema (e.g. "appekg").
	Name string `json:"name"`
	// Time is the producer's time since startup.
	Time time.Duration `json:"time_ns"`
	// Metrics holds the values, sorted by name for determinism.
	Metrics []Metric `json:"metrics"`
}

// Normalize sorts the metrics by name.
func (m *MetricSet) Normalize() {
	sort.Slice(m.Metrics, func(i, j int) bool { return m.Metrics[i].Name < m.Metrics[j].Name })
}

// Get returns the named metric's value and whether it exists.
func (m *MetricSet) Get(name string) (float64, bool) {
	for _, mt := range m.Metrics {
		if mt.Name == name {
			return mt.Value, true
		}
	}
	return 0, false
}

// Sampler provides a metric set on demand (the LDMS pull model).
type Sampler interface {
	Sample() (MetricSet, error)
}

// SamplerFunc adapts a function to the Sampler interface.
type SamplerFunc func() (MetricSet, error)

// Sample implements Sampler.
func (f SamplerFunc) Sample() (MetricSet, error) { return f() }

// Store receives collected metric sets.
type Store interface {
	Store(MetricSet) error
}

// MemStore retains metric sets in memory.
type MemStore struct {
	mu   sync.Mutex
	sets []MetricSet
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Store implements Store.
func (m *MemStore) Store(s MetricSet) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sets = append(m.sets, s)
	return nil
}

// Sets returns all stored sets in arrival order.
func (m *MemStore) Sets() []MetricSet {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]MetricSet(nil), m.sets...)
}

// BreakerOptions configures the aggregator's per-sampler circuit breaker.
// A sampler that fails Threshold consecutive pulls is "tripped": the
// aggregator stops pulling it for Cooldown rounds, then probes it once —
// success closes the breaker, failure re-trips it. This keeps one dead
// sampler (a crashed rank, a partitioned node) from stalling every
// collection round on its timeout.
type BreakerOptions struct {
	// Threshold is the consecutive-failure count that trips the breaker;
	// 0 disables the breaker entirely.
	Threshold int
	// Cooldown is how many collection rounds a tripped sampler is skipped
	// before the probe attempt; 0 means 1.
	Cooldown int
}

// samplerState is the breaker bookkeeping for one attached sampler.
type samplerState struct {
	fails int // consecutive failures
	skip  int // rounds left to skip before probing
}

// Aggregator pulls from samplers and fans the sets out to stores, on a
// virtual-clock interval or on demand via CollectOnce.
type Aggregator struct {
	mu       sync.Mutex
	samplers []Sampler
	states   []*samplerState
	breaker  BreakerOptions
	stores   []Store
	ticker   *vclock.Ticker
	pulls    int
	skipped  int // sampler-pulls suppressed by a tripped breaker
	trips    int // total breaker trips
	lastErr  error
}

// NewAggregator creates an aggregator. When clock is non-nil and interval
// positive, collection runs automatically every interval of virtual time;
// otherwise drive it with CollectOnce.
func NewAggregator(clock *vclock.Clock, interval time.Duration) *Aggregator {
	a := &Aggregator{}
	if clock != nil && interval > 0 {
		a.ticker = clock.NewTicker(interval, func(vclock.Time) { a.CollectOnce() })
	}
	return a
}

// SetBreaker configures the per-sampler circuit breaker. Call before the
// first collection round.
func (a *Aggregator) SetBreaker(opts BreakerOptions) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if opts.Cooldown <= 0 {
		opts.Cooldown = 1
	}
	a.breaker = opts
}

// AddSampler attaches a metric source.
func (a *Aggregator) AddSampler(s Sampler) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.samplers = append(a.samplers, s)
	a.states = append(a.states, &samplerState{})
}

// AddStore attaches a storage plugin.
func (a *Aggregator) AddStore(s Store) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stores = append(a.stores, s)
}

// CollectOnce pulls every sampler once and stores the results. It returns
// the first error encountered but keeps collecting from remaining samplers.
// Samplers with a tripped circuit breaker are skipped for their cooldown.
func (a *Aggregator) CollectOnce() error {
	a.mu.Lock()
	samplers := append([]Sampler(nil), a.samplers...)
	states := append([]*samplerState(nil), a.states...)
	breaker := a.breaker
	stores := append([]Store(nil), a.stores...)
	a.pulls++
	a.mu.Unlock()
	obs.C("ldms.pulls").Inc()
	var first error
	for i, s := range samplers {
		if breaker.Threshold > 0 {
			a.mu.Lock()
			if states[i].skip > 0 {
				states[i].skip--
				a.skipped++
				a.mu.Unlock()
				obs.C("ldms.pulls.skipped").Inc()
				continue
			}
			a.mu.Unlock()
		}
		set, err := s.Sample()
		if breaker.Threshold > 0 {
			a.mu.Lock()
			if err != nil {
				states[i].fails++
				if states[i].fails >= breaker.Threshold {
					states[i].fails = 0
					states[i].skip = breaker.Cooldown
					a.trips++
					obs.C("ldms.breaker.trips").Inc()
				}
			} else {
				states[i].fails = 0
			}
			a.mu.Unlock()
		}
		if err != nil {
			obs.C("ldms.sample.errors").Inc()
			if first == nil {
				first = err
			}
			continue
		}
		obs.C("ldms.samples").Inc()
		for _, st := range stores {
			if err := st.Store(set); err != nil && first == nil {
				first = err
			}
		}
	}
	a.mu.Lock()
	if first != nil && a.lastErr == nil {
		a.lastErr = first
	}
	a.mu.Unlock()
	return first
}

// Pulls reports how many collection rounds have run.
func (a *Aggregator) Pulls() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pulls
}

// BreakerTrips reports how many times a sampler's circuit breaker tripped.
func (a *Aggregator) BreakerTrips() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.trips
}

// SkippedPulls reports how many individual sampler pulls were suppressed
// because the sampler's breaker was open.
func (a *Aggregator) SkippedPulls() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.skipped
}

// Err returns the first collection error.
func (a *Aggregator) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastErr
}

// Close stops automatic collection.
func (a *Aggregator) Close() {
	if a.ticker != nil {
		a.ticker.Stop()
	}
}

// Serve exposes a sampler over a listener: each inbound connection may send
// newline-delimited "sample\n" requests and receives one JSON metric set per
// request. Serve blocks until the listener closes; run it in a goroutine.
func Serve(l net.Listener, s Sampler) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go serveConn(conn, s)
	}
}

func serveConn(conn net.Conn, s Sampler) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		if sc.Text() != "sample" {
			fmt.Fprintf(conn, `{"error":"bad request"}`+"\n")
			return
		}
		set, err := s.Sample()
		if err != nil {
			fmt.Fprintf(conn, `{"error":%q}`+"\n", err.Error())
			continue
		}
		if err := enc.Encode(set); err != nil {
			return
		}
	}
}

// DialOptions hardens the TCP transport against the failure modes of a
// production metric fabric: unreachable endpoints, stalled servers, and
// flaky connections. The zero value reproduces the legacy behavior (no
// deadlines, no retries).
type DialOptions struct {
	// DialTimeout bounds connection establishment; 0 means no limit.
	DialTimeout time.Duration
	// SampleTimeout bounds each request/response round trip: the
	// connection deadline is set this far in the future before every
	// attempt, so a stalled server yields a timeout error instead of a
	// hung collection round. 0 means no deadline.
	SampleTimeout time.Duration
	// Retries is the number of additional attempts a failed Sample makes.
	Retries int
	// Backoff is the pause before the first retry; it doubles per attempt
	// and is capped at BackoffCap. The schedule is deterministic (no
	// jitter) so fault-injected runs stay reproducible. 0 means 10ms.
	Backoff time.Duration
	// BackoffCap caps the doubling; 0 means 1s.
	BackoffCap time.Duration

	// sleep intercepts the backoff pause in tests; nil means time.Sleep.
	sleep func(time.Duration)
}

func (o DialOptions) withDefaults() DialOptions {
	if o.Backoff == 0 {
		o.Backoff = 10 * time.Millisecond
	}
	if o.BackoffCap == 0 {
		o.BackoffCap = time.Second
	}
	if o.sleep == nil {
		o.sleep = time.Sleep
	}
	return o
}

// backoffFor returns the deterministic pause before retry attempt (0-based).
func (o DialOptions) backoffFor(attempt int) time.Duration {
	d := o.Backoff
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= o.BackoffCap {
			return o.BackoffCap
		}
	}
	if d > o.BackoffCap {
		d = o.BackoffCap
	}
	return d
}

// remoteSampler pulls metric sets from a Serve endpoint.
type remoteSampler struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	opts DialOptions
}

// Dial connects to a Serve endpoint and returns a Sampler that pulls over
// the connection. Close the returned io.Closer when done. It applies no
// deadlines or retries; use DialWithOptions for a hardened transport.
func Dial(addr string) (Sampler, io.Closer, error) {
	return DialWithOptions(addr, DialOptions{})
}

// DialWithOptions is Dial with connection and per-sample deadlines plus
// capped, deterministic retry backoff.
func DialWithOptions(addr string, opts DialOptions) (Sampler, io.Closer, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("ldms: dialing %s: %w", addr, err)
	}
	return NewConnSampler(conn, opts), conn, nil
}

// NewConnSampler wraps an established connection to a Serve endpoint as a
// Sampler, applying opts' deadlines and retries. Exposed so tests and the
// fault injector can interpose a faulty net.Conn.
func NewConnSampler(conn net.Conn, opts DialOptions) Sampler {
	return &remoteSampler{conn: conn, br: bufio.NewReader(conn), opts: opts.withDefaults()}
}

// Sample implements Sampler over the TCP transport. Each attempt is bounded
// by SampleTimeout; failures retry up to Retries times with deterministic
// capped backoff, and the last error is returned when all attempts fail.
func (r *remoteSampler) Sample() (MetricSet, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= r.opts.Retries; attempt++ {
		if attempt > 0 {
			// Volatile: how many retries fire depends on transport timing,
			// not on the analysis inputs.
			obs.CV("ldms.sample.retries").Inc()
			r.opts.sleep(r.opts.backoffFor(attempt - 1))
		}
		set, err := r.sampleOnce()
		if err == nil {
			return set, nil
		}
		lastErr = err
	}
	return MetricSet{}, lastErr
}

func (r *remoteSampler) sampleOnce() (MetricSet, error) {
	if r.opts.SampleTimeout > 0 {
		if err := r.conn.SetDeadline(time.Now().Add(r.opts.SampleTimeout)); err != nil {
			return MetricSet{}, err
		}
	}
	if _, err := fmt.Fprintln(r.conn, "sample"); err != nil {
		return MetricSet{}, err
	}
	line, err := readResponse(r.br)
	if err != nil {
		return MetricSet{}, err
	}
	return decodeResponse(line)
}

// MaxResponseBytes bounds one response line, newline included. A metric set
// is a few kilobytes; a peer that sends more without a newline is broken or
// hostile, and reading on would grow the buffer without limit.
const MaxResponseBytes = 1 << 20

// ErrResponseTooLarge reports a response line longer than MaxResponseBytes.
// The rest of that line is left unread, so the connection is out of step;
// a retry reads on from where this attempt stopped.
var ErrResponseTooLarge = errors.New("ldms: response exceeds MaxResponseBytes")

// readResponse reads one newline-terminated response, failing with
// ErrResponseTooLarge once MaxResponseBytes have arrived without a newline.
func readResponse(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		if len(line)+len(frag) > MaxResponseBytes {
			return nil, ErrResponseTooLarge
		}
		line = append(line, frag...)
		if err != bufio.ErrBufferFull {
			return line, err
		}
	}
}

// decodeResponse decodes one response line: a metric set, or the error a
// Serve endpoint reports in its place ({"error": "..."}).
func decodeResponse(line []byte) (MetricSet, error) {
	var resp struct {
		MetricSet
		Error *string `json:"error"`
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return MetricSet{}, fmt.Errorf("ldms: decoding response: %w", err)
	}
	if resp.Error != nil {
		return MetricSet{}, fmt.Errorf("ldms: remote sampler: %s", *resp.Error)
	}
	return resp.MetricSet, nil
}
