// crash.go extends the injector to the durability path: process death at an
// exact point in the accepted stream, and the two on-disk corruptions a real
// crash leaves behind — a torn (truncated) snapshot file and a WAL whose
// tail bytes are damaged. The crash point is a plain count rather than a
// probability because the recovery property tests sweep it: "kill between
// every pair of accepted intervals" is a loop over After, not a dice roll.
// The file corruptions are pure functions of (seed, file size), so a given
// seed tears the same byte range on every run.
package faults

import (
	"errors"
	"fmt"
	"os"

	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/xmath"
)

// Crash-path fault kinds, continuing the Kind space in faults.go. They are
// only used as RNG-mix coordinates and names; the collection-path wrappers
// never roll them.
const (
	// KindCrash is process death between two accepted dumps.
	KindCrash Kind = iota + 100
	// KindTornSnapshot is a snapshot file truncated mid-write.
	KindTornSnapshot
	// KindWALCorrupt is bit damage in a WAL's tail record.
	KindWALCorrupt
)

// ErrCrash is the injected process death. A sink returning it models the
// kill arriving before the dump was accepted: everything previously emitted
// is durable, the in-flight dump is not.
var ErrCrash = errors.New("faults: injected crash")

// SnapshotSink is the sink CrashSink wraps: the snapshot stream's
// Emit/Flush pair that stream.Sink declares. The checkpoint Runner, the
// stream engine and the admission queue all satisfy it.
type SnapshotSink interface {
	Emit(*profile.Sample) error
	Flush() error
}

// CrashSink passes dumps through until an exact point in the accepted
// stream, then simulates process death: the fatal Emit (and every call
// after it) returns ErrCrash without reaching the downstream sink, exactly
// as if the process had been SIGKILLed between the previous accept and this
// one. It is deterministic by construction — the crash point is a count,
// not a roll — so recovery tests can sweep every possible kill point.
type CrashSink struct {
	down SnapshotSink
	// after is how many Emits succeed before the crash; <0 never crashes.
	after int
	// flushCrash makes Flush the dying call instead (death at end of
	// stream, before the terminal report was written).
	flushCrash bool

	emitted int
	crashed bool
}

// NewCrashSink wraps down so that exactly after Emits succeed and the next
// one dies. after < 0 disables the crash.
func NewCrashSink(down SnapshotSink, after int) *CrashSink {
	return &CrashSink{down: down, after: after}
}

// NewFlushCrashSink wraps down so every Emit succeeds and Flush dies.
func NewFlushCrashSink(down SnapshotSink) *CrashSink {
	return &CrashSink{down: down, after: -1, flushCrash: true}
}

// Emit implements SnapshotSink.
func (c *CrashSink) Emit(s *profile.Sample) error {
	if c.crashed || (c.after >= 0 && c.emitted >= c.after) {
		c.crashed = true
		return ErrCrash
	}
	if err := c.down.Emit(s); err != nil {
		return err
	}
	c.emitted++
	return nil
}

// Flush implements SnapshotSink.
func (c *CrashSink) Flush() error {
	if c.crashed {
		return ErrCrash
	}
	if c.flushCrash {
		c.crashed = true
		return ErrCrash
	}
	return c.down.Flush()
}

// Crashed reports whether the injected death has fired.
func (c *CrashSink) Crashed() bool { return c.crashed }

// Emitted returns how many dumps reached the downstream sink.
func (c *CrashSink) Emitted() int { return c.emitted }

// TearFile truncates path to a seed-deterministic prefix, modeling a
// snapshot write that died partway: the kept length is uniform in
// [1, size-1], so sometimes the header survives and sometimes it does not —
// both are states recovery must reject cleanly. A file of 1 byte or less is
// truncated to zero.
func TearFile(path string, seed uint64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := info.Size()
	if size <= 1 {
		return os.Truncate(path, 0)
	}
	rng := xmath.NewRNG(mix64(seed, uint64(KindTornSnapshot), uint64(size)))
	keep := 1 + int64(rng.Float64()*float64(size-1))
	return os.Truncate(path, keep)
}

// CorruptTail flips one seed-deterministic byte within the last span bytes
// of path (span <= 0 means 16), modeling bit damage in the record a crash
// interrupted. The WAL replay must stop at the damaged record and keep
// everything before it.
func CorruptTail(path string, seed uint64, span int) error {
	if span <= 0 {
		span = 16
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	if size == 0 {
		return fmt.Errorf("faults: %s is empty, nothing to corrupt", path)
	}
	if int64(span) > size {
		span = int(size)
	}
	rng := xmath.NewRNG(mix64(seed, uint64(KindWALCorrupt), uint64(size)))
	off := size - 1 - int64(rng.Float64()*float64(span))
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0xff
	_, err = f.WriteAt(b[:], off)
	return err
}
