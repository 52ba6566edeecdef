package stream_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

// recordingSink collects everything it is handed, optionally throttled, so
// tests can assert order, conservation, and flush sequencing.
type recordingSink struct {
	mu      sync.Mutex
	seqs    []int
	flushed bool
	delay   time.Duration
	block   chan struct{} // non-nil: Emit blocks until closed (stall tests)
}

func (r *recordingSink) Emit(s *profile.Sample) error {
	if r.block != nil {
		<-r.block
	}
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seqs = append(r.seqs, s.Seq)
	return nil
}

func (r *recordingSink) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushed = true
	return nil
}

func (r *recordingSink) snapshot() ([]int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.seqs...), r.flushed
}

func admSnap(seq int) *profile.Sample {
	return snap(seq, time.Duration(seq+1)*time.Second, 10*time.Millisecond,
		map[string][2]int64{"a": {int64(100 * (seq + 1)), int64(seq + 1)}})
}

// Block policy: nothing is lost, order is preserved, Flush drains and
// flushes downstream.
func TestAdmissionBlockDeliversEverythingInOrder(t *testing.T) {
	sink := &recordingSink{delay: 100 * time.Microsecond}
	adm := stream.NewAdmission(sink, stream.AdmissionOptions{MaxPending: 4, Policy: stream.ShedBlock})
	const n = 200
	for i := 0; i < n; i++ {
		if err := adm.Emit(admSnap(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := adm.Flush(); err != nil {
		t.Fatal(err)
	}
	seqs, flushed := sink.snapshot()
	if len(seqs) != n {
		t.Fatalf("delivered %d, want %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("order broken at %d: %d", i, s)
		}
	}
	if !flushed {
		t.Fatal("downstream Flush not called")
	}
	if adm.Shed() != 0 {
		t.Fatalf("block policy shed %d", adm.Shed())
	}
}

// Drop-oldest: the queue never exceeds its bound, every snapshot is either
// delivered or counted shed, shed callbacks fire in shed order, and the
// delivered stream stays in arrival order.
func TestAdmissionDropOldestConservesAndStaysOrdered(t *testing.T) {
	var shedMu sync.Mutex
	var shed []int
	sink := &recordingSink{delay: 300 * time.Microsecond}
	adm := stream.NewAdmission(sink, stream.AdmissionOptions{
		MaxPending: 8,
		Policy:     stream.ShedDropOldest,
		OnShed: func(s *profile.Sample) error {
			shedMu.Lock()
			shed = append(shed, s.Seq)
			shedMu.Unlock()
			return nil
		},
	})
	const n = 500
	for i := 0; i < n; i++ {
		if err := adm.Emit(admSnap(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := adm.Flush(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := sink.snapshot()
	shedMu.Lock()
	nshed := len(shed)
	shedOrdered := true
	for i := 1; i < len(shed); i++ {
		if shed[i] <= shed[i-1] {
			shedOrdered = false
		}
	}
	shedMu.Unlock()
	if len(seqs)+nshed != n {
		t.Fatalf("delivered %d + shed %d != %d", len(seqs), nshed, n)
	}
	if adm.Shed() != nshed || adm.Admitted() != len(seqs) {
		t.Fatalf("counters (%d, %d) disagree with observation (%d, %d)", adm.Shed(), adm.Admitted(), nshed, len(seqs))
	}
	if !shedOrdered {
		t.Fatal("shed callbacks out of order")
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("delivered stream out of order at %d: %v", i, seqs[i-1:i+1])
		}
	}
}

// The stall watchdog: a consumer wedged inside Emit halts the admission —
// producers get ErrStalled instead of blocking forever, and Flush returns
// instead of hanging.
func TestAdmissionStallWatchdogHaltsInsteadOfHanging(t *testing.T) {
	sink := &recordingSink{block: make(chan struct{})}
	defer close(sink.block)
	adm := stream.NewAdmission(sink, stream.AdmissionOptions{
		MaxPending: 2,
		Policy:     stream.ShedBlock,
		Stall:      50 * time.Millisecond,
	})
	// The first emit wedges the consumer; the second fits in the queue
	// whether or not the consumer has dequeued yet.
	for i := 0; i < 2; i++ {
		if err := adm.Emit(admSnap(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Keep emitting: the queue fills and the next Emit blocks on the
	// wedged consumer until the watchdog fires, then must return
	// ErrStalled promptly.
	errCh := make(chan error, 1)
	go func() {
		for i := 2; ; i++ {
			if err := adm.Emit(admSnap(i)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	select {
	case err := <-errCh:
		if !errors.Is(err, stream.ErrStalled) {
			t.Fatalf("blocked Emit returned %v, want ErrStalled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Emit hung past the watchdog")
	}
	if !adm.Halted() {
		t.Fatal("watchdog did not mark the admission halted")
	}
	// Flush must not hang on the wedged consumer either.
	done := make(chan error, 1)
	go func() { done <- adm.Flush() }()
	select {
	case err := <-done:
		if !errors.Is(err, stream.ErrStalled) {
			t.Fatalf("Flush returned %v, want ErrStalled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush hung on a wedged consumer")
	}
}

// Emit after Flush is an error, not a silent drop.
func TestAdmissionEmitAfterFlushErrors(t *testing.T) {
	sink := &recordingSink{}
	adm := stream.NewAdmission(sink, stream.AdmissionOptions{MaxPending: 2})
	if err := adm.Emit(admSnap(0)); err != nil {
		t.Fatal(err)
	}
	if err := adm.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := adm.Emit(admSnap(1)); err == nil {
		t.Fatal("Emit after Flush did not error")
	}
}

// A failed shed record fails the stream: the producer's Emit that shed gets
// the OnShed error, and so do every later Emit and Flush; the downstream
// sink is never flushed, so nothing reports the stream complete.
func TestAdmissionShedErrorReachesProducer(t *testing.T) {
	errRecord := errors.New("record failed")
	sink := &recordingSink{block: make(chan struct{})}
	adm := stream.NewAdmission(sink, stream.AdmissionOptions{
		MaxPending: 1,
		Policy:     stream.ShedDropOldest,
		OnShed:     func(*profile.Sample) error { return errRecord },
	})
	// The consumer wedges on its first dump, so with one slot the third
	// Emit at the latest finds the queue full and sheds.
	var err error
	for i := 0; i < 3 && err == nil; i++ {
		err = adm.Emit(admSnap(i))
	}
	if !errors.Is(err, errRecord) {
		t.Fatalf("shedding Emit returned %v, want the OnShed error", err)
	}
	close(sink.block)
	if err := adm.Emit(admSnap(3)); !errors.Is(err, errRecord) {
		t.Fatalf("Emit after a failed shed returned %v, want the OnShed error", err)
	}
	if err := adm.Flush(); !errors.Is(err, errRecord) {
		t.Fatalf("Flush after a failed shed returned %v, want the OnShed error", err)
	}
	if _, flushed := sink.snapshot(); flushed {
		t.Fatal("downstream flushed after a failed shed")
	}
}
