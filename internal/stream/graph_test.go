package stream_test

import (
	"fmt"
	"testing"

	"github.com/incprof/incprof/internal/stream"
)

// collector is a terminal test sink recording everything it receives.
type collector[T any] struct {
	items   []T
	flushes int
}

func (c *collector[T]) Emit(v T) error { c.items = append(c.items, v); return nil }
func (c *collector[T]) Flush() error   { c.flushes++; return nil }

// doubler is a trivial 1→2 stage used to exercise Pipe/Stage mechanics.
type doubler struct{ down stream.Sink[int] }

func (d *doubler) Start(down stream.Sink[int]) { d.down = down }
func (d *doubler) Emit(v int) error {
	if err := d.down.Emit(v); err != nil {
		return err
	}
	return d.down.Emit(v * 10)
}
func (d *doubler) Flush() error { return d.down.Flush() }

func TestPipeBindsStageToDownstream(t *testing.T) {
	var c collector[int]
	head := stream.Pipe[int, int](&doubler{}, &c)
	for _, v := range []int{1, 2} {
		if err := head.Emit(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := head.Flush(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(c.items) != "[1 10 2 20]" {
		t.Fatalf("items = %v", c.items)
	}
	if c.flushes != 1 {
		t.Fatalf("flushes = %d, want 1", c.flushes)
	}
}

func TestSinkFuncNilFlushIsNoop(t *testing.T) {
	s := stream.SinkFunc[int]{OnEmit: func(int) error { return nil }}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestInstrumentPassesThrough(t *testing.T) {
	var c collector[int]
	s := stream.Instrument[int]("test", &c)
	for i := 0; i < 3; i++ {
		if err := s.Emit(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(c.items) != 3 || c.flushes != 1 {
		t.Fatalf("items=%v flushes=%d", c.items, c.flushes)
	}
}
