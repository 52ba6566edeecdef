package incprof

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/profile"
)

// watchSnap is dump seq of a run whose one function's count grows by 10
// each dump.
func watchSnap(seq int) *profile.Sample {
	period := 10 * time.Millisecond
	samples := int64(10 * (seq + 1))
	return &profile.Sample{
		Seq:          seq,
		Timestamp:    time.Duration(seq+1) * time.Second,
		SamplePeriod: period,
		Funcs:        []profile.FuncRecord{{Name: "work", Samples: samples, SelfTime: time.Duration(samples) * period}},
	}
}

// dumpBytes encodes dump seq in the default format.
func dumpBytes(t testing.TB, seq int) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := formatOr(nil).Encode(&b, watchSnap(seq)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// renameIn lands dump seq in dir whole: written under a foreign name, then
// renamed to its own.
func renameIn(t testing.TB, dir string, seq int) {
	t.Helper()
	tmp := filepath.Join(dir, ".incoming")
	if err := os.WriteFile(tmp, dumpBytes(t, seq), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, formatOr(nil).FileName(seq))); err != nil {
		t.Fatal(err)
	}
}

// timedSink records each emitted Seq and when it arrived, for a test that
// reads them while the tail runs. It fails an emit that does not raise the
// Seq, as the strict engine fails a dump behind its reorder window.
type timedSink struct {
	mu   sync.Mutex
	seqs []int
	at   []time.Time
}

func (s *timedSink) Emit(d *profile.Sample) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.seqs); n > 0 && d.Seq <= s.seqs[n-1] {
		return fmt.Errorf("seq %d emitted after seq %d", d.Seq, s.seqs[n-1])
	}
	s.seqs = append(s.seqs, d.Seq)
	s.at = append(s.at, time.Now())
	return nil
}

func (s *timedSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seqs)
}

// waitFor polls until the sink holds n dumps, failing if the tail ends
// first or after a generous deadline.
func (s *timedSink) waitFor(t *testing.T, n int, done <-chan tailOutcome) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.len() < n; time.Sleep(time.Millisecond) {
		select {
		case o := <-done:
			t.Fatalf("the tail ended (%v) after emitting %d dumps, want %d", o.err, s.len(), n)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("the tail emitted %d dumps, want %d", s.len(), n)
		}
	}
}

// fakeFeed is a dirEvents a test drives by hand: it reports only what the
// test pushes.
type fakeFeed struct {
	mu     sync.Mutex
	queue  []dirEvent
	ready  chan struct{}
	closed bool
}

func (f *fakeFeed) push(ev dirEvent) {
	f.mu.Lock()
	f.queue = append(f.queue, ev)
	f.mu.Unlock()
	select {
	case f.ready <- struct{}{}:
	default:
	}
}

func (f *fakeFeed) drain(dst []dirEvent) []dirEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	dst = append(dst, f.queue...)
	f.queue = f.queue[:0]
	return dst
}

func (f *fakeFeed) wake() <-chan struct{} { return f.ready }

func (f *fakeFeed) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
}

func (f *fakeFeed) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// useFeed makes every watch the test's tails open report through feed,
// and returns how many have been opened.
func useFeed(t *testing.T, feed *fakeFeed) (opened func() int) {
	var mu sync.Mutex
	n := 0
	saved := openWatch
	openWatch = func(string, func(string) (int, bool)) dirEvents {
		mu.Lock()
		defer mu.Unlock()
		n++
		return feed
	}
	t.Cleanup(func() { openWatch = saved })
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		return n
	}
}

// counters enables observability for the test and returns a reader of the
// tail's listing and fallback counts.
func counters(t *testing.T) func() (listings, fallbacks int64) {
	obs.Enable(obs.Config{Seed: 1})
	t.Cleanup(obs.Disable)
	if !obs.Enabled() {
		t.Skip("observability is compiled out")
	}
	return func() (int64, int64) {
		return obs.CV("incprof.read.listings").Value(), obs.CV("incprof.read.fallbacks").Value()
	}
}

type tailOutcome struct {
	res TailResult
	err error
}

// startTail runs TailDir on its own goroutine.
func startTail(dir string, sink Sink, opts TailOptions) <-chan tailOutcome {
	done := make(chan tailOutcome, 1)
	go func() {
		res, err := TailDir(dir, sink, opts)
		done <- tailOutcome{res, err}
	}()
	return done
}

// A writer renames dumps in while verification listings run every 100 ms
// (a short Idle), writes one dump in place in two halves, and
// creates and deletes foreign names. The real watch must see every dump
// exactly once and in Seq order: a dump renamed in while a listing runs is
// in that listing or in the events drained after it, so reseeding the
// picture from the listing and only then applying the events loses none and
// reorders none. The healthy watch never falls back.
func TestTailWatchKeepsOrderAcrossVerificationListings(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the directory watch is inotify, Linux only")
	}
	count := counters(t)
	dir := t.TempDir()
	const n, inPlace = 600, 300
	stop := make(chan struct{})
	sink := &timedSink{}
	l0, f0 := count()
	done := startTail(dir, sink, TailOptions{Poll: 2 * time.Millisecond, Idle: 200 * time.Millisecond, Stop: stop})
	for i := 0; i < n; i++ {
		switch {
		case i == inPlace:
			data := dumpBytes(t, i)
			f, err := os.Create(filepath.Join(dir, formatOr(nil).FileName(i)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(data[:len(data)/2]); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond) // a pass or two meets the torn half
			if _, err := f.Write(data[len(data)/2:]); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		default:
			renameIn(t, dir, i)
		}
		if i%10 == 0 {
			foreign := filepath.Join(dir, fmt.Sprintf("core.%d.tmp", i))
			if err := os.WriteFile(foreign, []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(foreign); err != nil {
				t.Fatal(err)
			}
		}
		if i%50 == 49 {
			time.Sleep(20 * time.Millisecond) // spread the stream over several verification listings
		}
	}
	sink.waitFor(t, n, done)
	close(stop)
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	l, f := count()
	if o.res.Emitted != n || sink.len() != n {
		t.Fatalf("emitted %d (%d recorded), want %d", o.res.Emitted, sink.len(), n)
	}
	for i, seq := range sink.seqs {
		if seq != i {
			t.Fatalf("emit %d carried seq %d", i, seq)
		}
	}
	if f != f0 {
		t.Fatalf("a healthy watch fell back %d times", f-f0)
	}
	if l-l0 < 3 {
		t.Fatalf("%d listings ran; the test needs verification listings mid-stream", l-l0)
	}
}

// A watch that reports nothing (a network file system) is caught by the
// verification listings: they find the dumps it missed, each is emitted
// well before the idle window could close on it, and at the next
// verification the tail falls back to listing every poll, once.
func TestTailBlindWatchFallsBackToListing(t *testing.T) {
	count := counters(t)
	feed := &fakeFeed{ready: make(chan struct{}, 1)}
	useFeed(t, feed)
	dir := t.TempDir()
	const seeded, n, idle = 5, 25, 400 * time.Millisecond
	for i := 0; i < seeded; i++ {
		renameIn(t, dir, i)
	}
	stop := make(chan struct{})
	sink := &timedSink{}
	_, f0 := count()
	done := startTail(dir, sink, TailOptions{Poll: 5 * time.Millisecond, Idle: idle, Stop: stop})
	sink.waitFor(t, seeded, done)
	landed := make([]time.Time, n)
	for i := seeded; i < n; i++ {
		renameIn(t, dir, i)
		landed[i] = time.Now()
		time.Sleep(40 * time.Millisecond)
	}
	sink.waitFor(t, n, done)
	close(stop)
	o := <-done
	if o.err != nil || !o.res.Stopped {
		t.Fatalf("tail ended with %v, stopped %v; want a clean stop", o.err, o.res.Stopped)
	}
	for i := seeded; i < n; i++ {
		if lag := sink.at[i].Sub(landed[i]); lag >= idle {
			t.Errorf("dump %d emitted %v after it landed, not within the %v idle window", i, lag, idle)
		}
	}
	if _, f := count(); f-f0 != 1 {
		t.Fatalf("%d fallbacks, want 1", f-f0)
	}
	if !feed.isClosed() {
		t.Fatal("the blind watch was not closed")
	}
}

// An overflow (the kernel dropped events) makes the next pass list the
// directory, which finds the dumps whose events were lost; the tail then
// carries on from events without listing again.
func TestTailWatchOverflowRelists(t *testing.T) {
	count := counters(t)
	feed := &fakeFeed{ready: make(chan struct{}, 1)}
	useFeed(t, feed)
	dir := t.TempDir()
	for i := 0; i < 10; i++ {
		renameIn(t, dir, i)
	}
	land := func(lo, hi int, report bool) {
		for i := lo; i < hi; i++ {
			renameIn(t, dir, i)
			if report {
				feed.push(dirEvent{op: evAdded | evWake, seq: i, name: formatOr(nil).FileName(i)})
			}
		}
	}
	stop := make(chan struct{})
	sink := &timedSink{}
	l0, f0 := count()
	// No poll or verification falls due in the test: only the feed wakes
	// the tail.
	done := startTail(dir, sink, TailOptions{Poll: time.Hour, Idle: 2 * time.Hour, Stop: stop})
	sink.waitFor(t, 10, done)
	land(10, 20, true)
	sink.waitFor(t, 20, done)
	land(20, 30, false)
	feed.push(dirEvent{op: evOverflow})
	sink.waitFor(t, 30, done)
	land(30, 40, true)
	sink.waitFor(t, 40, done)
	close(stop)
	if o := <-done; o.err != nil || !o.res.Stopped || o.res.Emitted != 40 {
		t.Fatalf("tail ended with %v, stopped %v, %d emitted; want a clean stop after 40", o.err, o.res.Stopped, o.res.Emitted)
	}
	if l, f := count(); l-l0 != 2 || f-f0 != 1 {
		t.Fatalf("%d listings and %d fallbacks, want 2 (seed, overflow) and 1", l-l0, f-f0)
	}
}

// Stop ends a watched tail's wait at once, however long Poll is.
func TestTailWatchedWaitEndsOnStop(t *testing.T) {
	feed := &fakeFeed{ready: make(chan struct{}, 1)}
	useFeed(t, feed)
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		renameIn(t, dir, i)
	}
	stop := make(chan struct{})
	sink := &timedSink{}
	done := startTail(dir, sink, TailOptions{Poll: time.Hour, Idle: 2 * time.Hour, Stop: stop})
	sink.waitFor(t, 3, done)
	time.Sleep(20 * time.Millisecond) // into the wait
	close(stop)
	select {
	case o := <-done:
		if o.err != nil || !o.res.Stopped || o.res.Emitted != 3 {
			t.Fatalf("tail ended with %v, stopped %v, %d emitted; want a clean stop after 3", o.err, o.res.Stopped, o.res.Emitted)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not end the wait")
	}
	if !feed.isClosed() {
		t.Fatal("the watch was not closed")
	}
}

// The last quarter of an idle window drops the watch, so its slow teardown
// is over before the run ends, and lists every poll instead: a dump that
// lands then is still emitted, the window starts again, and a new watch
// takes over.
func TestTailRestsWatchLateInIdleWindow(t *testing.T) {
	feed := &fakeFeed{ready: make(chan struct{}, 1)}
	opened := useFeed(t, feed)
	dir := t.TempDir()
	renameIn(t, dir, 0)
	stop := make(chan struct{})
	sink := &timedSink{}
	const idle = 400 * time.Millisecond
	start := time.Now()
	done := startTail(dir, sink, TailOptions{Poll: 5 * time.Millisecond, Idle: idle, Stop: stop})
	sink.waitFor(t, 1, done)
	for deadline := time.Now().Add(10 * time.Second); !feed.isClosed(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the watch was never dropped")
		}
	}
	if rested := time.Since(start); rested < idle*3/4 {
		t.Fatalf("the watch was dropped %v into a %v idle window, before its last quarter", rested, idle)
	}
	renameIn(t, dir, 1) // no event: only a listing finds it
	sink.waitFor(t, 2, done)
	for deadline := time.Now().Add(10 * time.Second); opened() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no new watch after a dump landed")
		}
	}
	close(stop)
	if o := <-done; o.err != nil || !o.res.Stopped || o.res.Emitted != 2 {
		t.Fatalf("tail ended with %v, stopped %v, %d emitted; want a clean stop after 2", o.err, o.res.Stopped, o.res.Emitted)
	}
}

// discard takes every dump and keeps none.
type discard struct{}

func (discard) Emit(*profile.Sample) error { return nil }

// BenchmarkTailIdlePoll is one pass of a tail that has caught up, over a
// directory of 1,000 and 10,000 dumps: what every poll costs while the
// application runs between dumps. A tail that lists the directory pays for
// every entry on each poll; a watched one (Linux) drains its events and
// lists only every Idle/2.
func BenchmarkTailIdlePoll(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			dir := b.TempDir()
			st, err := NewDirStore(dir, false)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := st.Put(watchSnap(i)); err != nil {
					b.Fatal(err)
				}
			}
			r := newReader(dir, discard{}, TailOptions{Poll: 200 * time.Millisecond, Idle: 2 * time.Second})
			r.watch()
			defer r.unwatch()
			if _, err := r.pass(false); err != nil || r.res.Emitted != n {
				b.Fatalf("seed pass emitted %d of %d: %v", r.res.Emitted, n, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if progress, err := r.pass(false); progress || err != nil {
					b.Fatalf("idle pass: progress %v, %v", progress, err)
				}
			}
		})
	}
}
