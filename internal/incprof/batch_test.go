package incprof_test

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/online"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

var _ incprof.BatchSink = (*stream.Engine)(nil)

// batchSink records the Seqs of every EmitBatch, consuming each slot as
// the engine does, and at each EndPass how many batches it had taken.
type batchSink struct {
	recordingSink
	batches [][]int
	ends    []int
	onBatch func()
}

func (b *batchSink) EndPass() error {
	b.ends = append(b.ends, len(b.batches))
	return nil
}

func (b *batchSink) EmitBatch(batch []*profile.Sample) error {
	var seqs []int
	for i, s := range batch {
		seqs = append(seqs, s.Seq)
		b.snaps = append(b.snaps, s)
		batch[i] = nil
	}
	b.batches = append(b.batches, seqs)
	if b.onBatch != nil {
		b.onBatch()
	}
	return nil
}

func seqRange(lo, hi int) []int {
	var out []int
	for s := lo; s < hi; s++ {
		out = append(out, s)
	}
	return out
}

// A BatchSink gets each read chunk's run of consecutive decoded dumps as
// one batch, the run cut at an undecodable dump, and one EndPass after the
// read's one pass; a plain Sink gets the same dumps one Emit at a time.
// Serial and pooled decodes agree.
func TestReadDirHandsABatchSinkOneRunPerChunk(t *testing.T) {
	st := pprofStore(t, 150)
	if err := os.WriteFile(st.PathFor(100), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, _ := profile.Lookup("pprof")
	want := [][]int{seqRange(0, 64), seqRange(64, 100), seqRange(101, 128), seqRange(128, 150)}
	perDump, _, err := read(st, f, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		sink := &batchSink{}
		res, err := incprof.ReadDir(st.Dir(), sink, incprof.TailOptions{Format: f, Salvage: true, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sink.batches, want) {
			t.Fatalf("parallelism %d: batches %v, want %v", p, sink.batches, want)
		}
		if !reflect.DeepEqual(sink.ends, []int{len(want)}) {
			t.Fatalf("parallelism %d: EndPass after batches %v, want once after all %d", p, sink.ends, len(want))
		}
		if res.Emitted != 149 || len(res.Skipped) != 1 || res.Last.Seq != 149 {
			t.Fatalf("parallelism %d: emitted %d, skipped %d, last %d; want 149, 1, 149", p, res.Emitted, len(res.Skipped), res.Last.Seq)
		}
		if !reflect.DeepEqual(sink.snaps, perDump) {
			t.Fatalf("parallelism %d: batched snapshots differ from a per-dump read", p)
		}
	}
}

// Stop is honoured at batch boundaries: a batch the sink has begun is
// delivered whole, and the tail ends before the next one. A sink that
// takes one dump at a time has a boundary after every dump.
func TestTailStopsAtBatchBoundaries(t *testing.T) {
	st := pprofStore(t, 150)
	f, _ := profile.Lookup("pprof")
	for _, tc := range []struct {
		name string
		sink func(stop func()) incprof.Sink
		want int
	}{
		{"batch", func(stop func()) incprof.Sink { return &batchSink{onBatch: stop} }, 64},
		{"per-dump", func(stop func()) incprof.Sink { return &stopSink{stop: stop} }, 1},
	} {
		ch := make(chan struct{})
		var once sync.Once
		sink := tc.sink(func() { once.Do(func() { close(ch) }) })
		res, err := incprof.TailDir(st.Dir(), sink, incprof.TailOptions{
			Format: f, Poll: time.Millisecond, Idle: time.Minute, Stop: ch, Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stopped || res.Emitted != tc.want {
			t.Fatalf("%s sink: stopped %v after %d dumps, want stopped after %d", tc.name, res.Stopped, res.Emitted, tc.want)
		}
	}
}

// stopSink fires stop on its first Emit.
type stopSink struct {
	recordingSink
	stop func()
}

func (s *stopSink) Emit(x *profile.Sample) error {
	s.stop()
	return s.recordingSink.Emit(x)
}

// passEnds wraps an engine and logs what it is told and reports, in
// order: "label N" per interval, "refresh N" per intermediate refresh over
// N intervals, and "end" per EndPass.
type passEnds struct {
	*stream.Engine
	log []string
}

func (p *passEnds) EndPass() error {
	p.log = append(p.log, "end")
	return p.Engine.EndPass()
}

// A pass cut short at a dump still being written ends like any other: the
// sink gets its EndPass, and the refresh its dumps made due runs there,
// before the next pass emits anything. The catch-up's 100 dumps span two
// read chunks and refresh once.
func TestTailPassCutShortAtMidWriteDumpEnds(t *testing.T) {
	st := pprofStore(t, 150)
	f, _ := profile.Lookup("pprof")
	whole, err := os.ReadFile(st.PathFor(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.PathFor(100), whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	sink := &passEnds{}
	sink.Engine = stream.New(stream.Options{
		RefreshEvery: 10,
		OnLabel: func(ev online.Event) {
			sink.log = append(sink.log, fmt.Sprint("label ", ev.Interval))
			if ev.Interval == 99 {
				// The first pass has decoded dump 100 torn and stops
				// before it; the writer finishes it now.
				if err := os.WriteFile(st.PathFor(100), whole, 0o644); err != nil {
					t.Error(err)
				}
			}
		},
		OnRefresh: func(r stream.Refresh) {
			if !r.Final {
				sink.log = append(sink.log, fmt.Sprint("refresh ", r.Intervals))
			}
		},
	})
	res, err := incprof.TailDir(st.Dir(), sink, incprof.TailOptions{Format: f, Poll: time.Millisecond, Idle: 100 * time.Millisecond, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != 150 {
		t.Fatalf("emitted %d dumps, want 150", res.Emitted)
	}
	var want []string
	for i := 0; i < 150; i++ {
		want = append(want, fmt.Sprint("label ", i))
		if i == 99 || i == 149 {
			want = append(want, "end", fmt.Sprint("refresh ", i+1))
		}
	}
	if !reflect.DeepEqual(sink.log, want) {
		t.Fatalf("engine events:\n%v\nwant:\n%v", sink.log, want)
	}
}
