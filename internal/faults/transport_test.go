// transport_test.go holds the transport-side injectors: the Plan's
// SampleError, SampleStall and Garbage rates applied to an LDMS sampler and
// to the connection under a remote one. They live with the tests, their
// only callers, so the package — and every binary that injects store faults
// through it — does not link the network stack.
package faults

import (
	"fmt"
	"net"

	"github.com/incprof/incprof/internal/ldms"
)

// faultSampler wraps an ldms.Sampler and injects per-call transport faults:
// outright errors and stalls. Calls are numbered from 0; the call number is
// the decision coordinate.
type faultSampler struct {
	inner ldms.Sampler
	plan  Plan
	rank  int
	calls int
}

// newFaultSampler wraps inner with fault injection for the given rank.
func newFaultSampler(inner ldms.Sampler, plan Plan, rank int) *faultSampler {
	return &faultSampler{inner: inner, plan: plan.withDefaults(), rank: rank}
}

// Sample implements ldms.Sampler.
func (f *faultSampler) Sample() (ldms.MetricSet, error) {
	seq := f.calls
	f.calls++
	if f.plan.decide(KindSampleStall, f.rank, seq, f.plan.SampleStall) {
		f.plan.sleep(f.plan.StallFor)
	}
	if f.plan.decide(KindSampleError, f.rank, seq, f.plan.SampleError) {
		return ldms.MetricSet{}, fmt.Errorf("faults: injected sample error (rank %d, call %d)", f.rank, seq)
	}
	return f.inner.Sample()
}

// faultConn wraps a net.Conn and corrupts the read side: responses are
// replaced with garbage bytes, fail outright, or stall before delivery.
// Reads are numbered from 0 per connection. Writes pass through untouched
// so the request still reaches the server.
type faultConn struct {
	net.Conn
	plan  Plan
	rank  int
	reads int
}

// newFaultConn wraps conn with read-side fault injection for the given rank.
func newFaultConn(conn net.Conn, plan Plan, rank int) *faultConn {
	return &faultConn{Conn: conn, plan: plan.withDefaults(), rank: rank}
}

// Read implements net.Conn. Garbage responses end in '\n' so that a
// line-oriented reader terminates and fails in the JSON decoder rather
// than blocking for more bytes.
func (c *faultConn) Read(b []byte) (int, error) {
	seq := c.reads
	c.reads++
	if c.plan.decide(KindSampleStall, c.rank, seq, c.plan.SampleStall) {
		c.plan.sleep(c.plan.StallFor)
	}
	if c.plan.decide(KindSampleError, c.rank, seq, c.plan.SampleError) {
		return 0, fmt.Errorf("faults: injected read error (rank %d, read %d)", c.rank, seq)
	}
	if c.plan.decide(KindGarbage, c.rank, seq, c.plan.Garbage) {
		// Consume the real response so the stream stays aligned for the
		// next request, then hand back undecodable bytes.
		if _, err := c.Conn.Read(b); err != nil {
			return 0, err
		}
		garbage := []byte("\x00\xff\xfenot json\n")
		n := copy(b, garbage)
		return n, nil
	}
	return c.Conn.Read(b)
}
