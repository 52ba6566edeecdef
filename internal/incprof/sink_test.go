// The collector's Sink emit path: every dump reaches the live stream, in
// order, whether or not the store accepted it. External test package so it
// can assert that the streaming engine satisfies the Sink shape without an
// import cycle.
package incprof_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/exec"
	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/profiler"
	"github.com/incprof/incprof/internal/stream"
)

// The streaming engine plugs into the collector directly.
var _ incprof.Sink = (*stream.Engine)(nil)

type recordingSink struct {
	snaps []*profile.Sample
	fail  bool
}

func (r *recordingSink) Emit(s *profile.Sample) error {
	if r.fail {
		return fmt.Errorf("sink down")
	}
	r.snaps = append(r.snaps, s)
	return nil
}

// failStore rejects every Put, modeling dead storage.
type failStore struct{}

func (failStore) Put(*profile.Sample) error             { return fmt.Errorf("store down") }
func (failStore) Snapshots() ([]*profile.Sample, error) { return nil, nil }

func runCollector(t *testing.T, opts incprof.Options, seconds int) *incprof.Collector {
	t.Helper()
	rt := exec.New(nil)
	p := profiler.New(rt, 10*time.Millisecond)
	c := incprof.New(rt, p, opts)
	main := rt.Register("main")
	work := rt.Register("work")
	rt.Call(main, func() {
		for i := 0; i < seconds*4; i++ {
			rt.Call(work, func() { rt.Work(250 * time.Millisecond) })
		}
	})
	// Close's error is the collector's first failure; the tests below
	// inspect it (or its absence) explicitly via Err.
	_ = c.Close()
	return c
}

func TestSinkSeesEveryDumpInStoreOrder(t *testing.T) {
	sink := &recordingSink{}
	st := incprof.NewMemStore()
	c := runCollector(t, incprof.Options{Store: st, Sink: sink}, 3)
	stored, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) == 0 {
		t.Fatal("no dumps collected")
	}
	if len(sink.snaps) != len(stored) {
		t.Fatalf("sink saw %d dumps, store has %d", len(sink.snaps), len(stored))
	}
	for i := range stored {
		if sink.snaps[i] != stored[i] {
			t.Fatalf("dump %d: sink and store received different snapshots", i)
		}
	}
	if c.Dumps() != len(stored) {
		t.Fatalf("Dumps() = %d, stored %d", c.Dumps(), len(stored))
	}
}

func TestSinkKeepsReceivingWhileStoreFails(t *testing.T) {
	sink := &recordingSink{}
	c := runCollector(t, incprof.Options{Store: failStore{}, Sink: sink}, 3)
	if c.Dropped() == 0 {
		t.Fatal("test premise broken: failing store dropped nothing")
	}
	if len(sink.snaps) != c.Dumps() {
		t.Fatalf("sink saw %d dumps, collector made %d: live stream coupled to storage health", len(sink.snaps), c.Dumps())
	}
	// Seqs are still ascending and complete on the sink side.
	for i, s := range sink.snaps {
		if s.Seq != i {
			t.Fatalf("sink dump %d has seq %d", i, s.Seq)
		}
	}
}

func TestSinkErrorRecordedButCollectionContinues(t *testing.T) {
	sink := &recordingSink{fail: true}
	c := runCollector(t, incprof.Options{Store: incprof.NewMemStore(), Sink: sink}, 3)
	if c.Err() == nil {
		t.Fatal("sink failure not surfaced via Err")
	}
	if c.Dropped() != 0 {
		t.Fatalf("sink failure counted as dropped store dumps: %d", c.Dropped())
	}
	snaps, err := c.Store().Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != c.Dumps() {
		t.Fatalf("store has %d snapshots, collector made %d dumps", len(snaps), c.Dumps())
	}
}

// A collector feeding a streaming engine end to end: live analysis of its
// own dumps finishes with the same detection the batch path computes from
// the store.
func TestCollectorFeedsEngineEndToEnd(t *testing.T) {
	eng := stream.New(stream.Options{})
	st := incprof.NewMemStore()
	runCollector(t, incprof.Options{Store: st, Sink: eng}, 5)
	r, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Profiles) != len(snaps) {
		t.Fatalf("engine analyzed %d intervals from %d dumps", len(r.Profiles), len(snaps))
	}
	if r.Detection == nil || len(r.Detection.Phases) == 0 {
		t.Fatal("live analysis produced no phases")
	}
}
