// Package faults is a seedable, deterministic fault injector for the
// collection path: it wraps the boundaries where real profile data gets
// lost — the dump store (lost, duplicated, truncated files), the metric
// transport (errors, stalls, garbage bytes on the wire; the package's tests
// hold its injectors), and the rank itself (a collector that dies mid-run)
// — so the analysis pipeline's degraded-mode behavior can be exercised and
// measured.
//
// Every fault decision is a pure function of (Plan.Seed, fault kind, rank,
// sequence number): a fresh RNG is seeded per decision rather than shared
// across calls, so outcomes are independent of goroutine scheduling and
// call order. Two runs with the same plan inject byte-identical faults at
// any parallelism — the property ablation A12 and the CI determinism check
// rely on.
package faults

import (
	"fmt"
	"os"
	"time"

	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/xmath"
)

// Kind names one injectable fault; it is mixed into the per-decision RNG
// seed so the different fault streams are statistically independent.
type Kind int

const (
	// KindDrop loses a dump entirely (Store.Put becomes a no-op).
	KindDrop Kind = iota
	// KindDuplicate stores a dump twice (a retransmitted transfer).
	KindDuplicate
	// KindTruncate cuts a stored dump file short mid-encode.
	KindTruncate
	// KindSampleError fails a transport Sample call outright.
	KindSampleError
	// KindSampleStall delays a Sample call until its deadline would fire.
	KindSampleStall
	// KindGarbage replaces a transport response with undecodable bytes.
	KindGarbage
)

// String returns the kind's short name.
func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindDuplicate:
		return "duplicate"
	case KindTruncate:
		return "truncate"
	case KindSampleError:
		return "sample-error"
	case KindSampleStall:
		return "sample-stall"
	case KindGarbage:
		return "garbage"
	case KindCrash:
		return "crash"
	case KindTornSnapshot:
		return "torn-snapshot"
	case KindWALCorrupt:
		return "wal-corrupt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Plan configures which faults fire and how often. Probabilities are in
// [0, 1] and are evaluated independently per dump or per call. The zero
// value injects nothing.
type Plan struct {
	// Seed drives every fault decision. Two runs with equal plans see
	// identical faults.
	Seed uint64

	// Drop is the probability a dump is lost before reaching the store.
	Drop float64
	// Duplicate is the probability a stored dump is stored a second time.
	Duplicate float64
	// Truncate is the probability a stored dump file is cut short after
	// landing (only effective for stores that expose file paths, i.e.
	// DirStore; otherwise it degrades to a drop, the observable effect a
	// truncated file has after salvage).
	Truncate float64
	// TruncateFrac is the fraction of the file kept; 0 means 0.5.
	TruncateFrac float64

	// StopRank and StopAfter model one rank dying mid-run: the rank with
	// ID StopRank forwards only its first StopAfter dumps, then goes
	// silent. StopAfter <= 0 disables the stop.
	StopRank  int
	StopAfter int

	// SampleError is the probability a transport Sample call fails.
	SampleError float64
	// SampleStall is the probability a Sample call stalls for StallFor.
	SampleStall float64
	// Garbage is the probability a transport response is replaced with
	// bytes that cannot decode.
	Garbage float64
	// StallFor is the stall duration; 0 means 250ms (comfortably past the
	// deadlines the hardened transport sets in tests).
	StallFor time.Duration

	// sleep intercepts stalls in tests; nil means time.Sleep.
	sleep func(time.Duration)
}

func (p Plan) withDefaults() Plan {
	if p.TruncateFrac == 0 {
		p.TruncateFrac = 0.5
	}
	if p.StallFor == 0 {
		p.StallFor = 250 * time.Millisecond
	}
	if p.sleep == nil {
		p.sleep = time.Sleep
	}
	return p
}

// mix64 folds the decision coordinates into one RNG seed with sequential
// SplitMix64 steps, so that (kind, rank, seq) triples that differ in any
// coordinate produce unrelated streams (an xor of products would let
// coordinates cancel).
func mix64(vals ...uint64) uint64 {
	z := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		z += v + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// decide returns whether the fault fires for this exact coordinate. It is a
// pure function: no shared RNG state, so call order cannot change outcomes.
func (p Plan) decide(kind Kind, rank, seq int, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	rng := xmath.NewRNG(mix64(p.Seed, uint64(kind), uint64(rank), uint64(seq)))
	return rng.Float64() < prob
}

// Store wraps an incprof.Store and injects dump-level faults per the plan.
// It is not safe for concurrent use, matching the collectors that feed it
// (one store per rank).
type Store struct {
	inner incprof.Store
	plan  Plan
	rank  int

	puts       int
	dropped    int
	duplicated int
	truncated  int
	stopped    bool
}

// pathStore is the optional interface a store exposes when its dumps live
// in files the injector can corrupt in place. DirStore implements it.
type pathStore interface {
	PathFor(seq int) string
}

// NewStore wraps inner with fault injection for the given rank.
func NewStore(inner incprof.Store, plan Plan, rank int) *Store {
	return &Store{inner: inner, plan: plan.withDefaults(), rank: rank}
}

// Put implements incprof.Store, deciding per dump whether it is dropped,
// duplicated, truncated, or silently discarded because the rank has
// "died". Decisions key on the snapshot's Seq, not on call order.
func (s *Store) Put(snap *profile.Sample) error {
	s.puts++
	if s.plan.StopAfter > 0 && s.rank == s.plan.StopRank && s.puts > s.plan.StopAfter {
		s.stopped = true
		s.dropped++
		return nil // a dead rank reports nothing, not even an error
	}
	if s.plan.decide(KindDrop, s.rank, snap.Seq, s.plan.Drop) {
		s.dropped++
		return nil
	}
	truncate := s.plan.decide(KindTruncate, s.rank, snap.Seq, s.plan.Truncate)
	if truncate {
		ps, ok := s.inner.(pathStore)
		if !ok {
			// No file to corrupt: the post-salvage effect of a truncated
			// dump is a missing dump, so degrade to a drop.
			s.dropped++
			return nil
		}
		if err := s.inner.Put(snap); err != nil {
			return err
		}
		s.truncated++
		return truncateFile(ps.PathFor(snap.Seq), s.plan.TruncateFrac)
	}
	if err := s.inner.Put(snap); err != nil {
		return err
	}
	if s.plan.decide(KindDuplicate, s.rank, snap.Seq, s.plan.Duplicate) {
		s.duplicated++
		return s.inner.Put(snap.Clone())
	}
	return nil
}

func truncateFile(path string, frac float64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, int64(float64(info.Size())*frac))
}

// Snapshots implements incprof.Store by delegating to the wrapped store.
func (s *Store) Snapshots() ([]*profile.Sample, error) { return s.inner.Snapshots() }

// Dropped returns how many dumps the injector discarded (including those
// suppressed after the rank stop).
func (s *Store) Dropped() int { return s.dropped }

// Duplicated returns how many dumps were stored twice.
func (s *Store) Duplicated() int { return s.duplicated }

// Truncated returns how many dump files were cut short on disk.
func (s *Store) Truncated() int { return s.truncated }

// Stopped reports whether the rank-stop fault has fired.
func (s *Store) Stopped() bool { return s.stopped }
