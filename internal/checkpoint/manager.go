// manager.go owns a state directory: which snapshot generation is current,
// which WAL is open for append, how recovery picks the newest consistent
// state, and when old generations are garbage-collected.
package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/profile"
)

// keepGenerations is how many snapshot generations survive GC. Two: the
// newest, plus its predecessor so a snapshot that turns out corrupt on the
// next recovery still has a fallback whose WAL covers the distance.
const keepGenerations = 2

// ManagerOptions configures Open.
type ManagerOptions struct {
	// NoSync disables WAL and snapshot fsync — for tests and benchmarks
	// only; crash safety requires sync.
	NoSync bool
}

// Manager owns one state directory. It is not safe for concurrent use,
// matching the single-threaded live path that drives it.
type Manager struct {
	dir  string
	sync bool
	gen  int // generation (accepted count) of the current snapshot/WAL
	wal  *WAL
	seg  *segment
}

// Open creates (if needed) and opens a state directory. The manager starts
// on generation 0 with no snapshot; Recover moves it to the newest durable
// state.
func Open(dir string, opts ManagerOptions) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Manager{dir: dir, sync: !opts.NoSync, seg: newSegment(segPath(dir), segIndex{}, nil)}, nil
}

// Recovery is the result of Recover: the newest valid snapshot (nil when
// the engine must start fresh) and the WAL records accepted after it, in
// order.
type Recovery struct {
	// Snapshot is the restored state, nil for a fresh start.
	Snapshot *Snapshot
	// Records replay the accepted/shed dumps since the snapshot.
	Records []WALRecord
	// TornWAL reports that the WAL tail was torn or corrupt and has been
	// truncated to its last valid record.
	TornWAL bool
	// Skipped lists snapshot files that failed validation, newest first,
	// with the reason — recovery fell back past them.
	Skipped []string
}

// choice is what recovery decides for a state directory, worked out
// without touching it: Recover acts on it and Fsck reports it, so the two
// cannot disagree.
type choice struct {
	// snap is the generation to resume from, its Engine.Profiles filled
	// from the segment; nil for a fresh start.
	snap *Snapshot
	// seg is the segment prefix snap names, and names its name table.
	seg   segIndex
	names []string
	// invalid lists the newer generations passed over, newest first, and
	// skipped why.
	invalid []int
	skipped []string
	// chain is the WAL generations to replay, ascending; empty when none
	// exists yet.
	chain []int
}

// choose picks the newest generation whose snapshot and segment prefix both
// validate and whose config matches expect (nil skips that check), and the
// WAL chain that replays on top of it. It refuses — an error, the directory
// untouched — rather than resume from state that would silently change the
// report: a snapshot of another format version (this build cannot read it,
// and falling back past it would discard good state), a config mismatch, or
// a chain that does not start at the chosen generation (with no usable
// snapshot and wal-0 gone, the engine would start fresh in mid-stream).
func choose(dir string, expect *Config) (*choice, error) {
	gens, err := listGenerations(dir)
	if err != nil {
		return nil, err
	}
	c := &choice{}
	for i := len(gens) - 1; i >= 0; i-- {
		path := snapPath(dir, gens[i])
		snap, seg, names, err := loadGeneration(dir, gens[i])
		var verr *versionError
		if errors.As(err, &verr) {
			return nil, fmt.Errorf("%w; refusing to resume, the state directory is left as it is", err)
		}
		if err != nil {
			c.invalid = append(c.invalid, gens[i])
			c.skipped = append(c.skipped, err.Error())
			continue
		}
		if expect != nil && !reflect.DeepEqual(snap.Config, *expect) {
			return nil, fmt.Errorf("checkpoint: %s was written under different analysis options; refusing to resume (stored %+v, expected %+v)",
				path, snap.Config, *expect)
		}
		c.snap, c.seg, c.names = snap, seg, names
		break
	}
	gen := c.gen()
	for _, g := range listWALs(dir) {
		if g >= gen {
			c.chain = append(c.chain, g)
		}
	}
	if len(c.chain) > 0 && c.chain[0] != gen {
		from := fmt.Sprintf("generation %d", gen)
		if c.snap == nil {
			from = "no usable snapshot, so a fresh start"
		}
		err := fmt.Errorf("checkpoint: %s: recovery needs %s (%s), but the first surviving WAL is generation %d; refusing to resume mid-stream",
			dir, filepath.Base(walPath(dir, gen)), from, c.chain[0])
		if len(c.skipped) > 0 {
			err = fmt.Errorf("%w (snapshots passed over: %s)", err, strings.Join(c.skipped, "; "))
		}
		return nil, err
	}
	return c, nil
}

// gen is the generation recovery resumes from, 0 for a fresh start.
func (c *choice) gen() int {
	if c.snap == nil {
		return 0
	}
	return c.snap.Accepted
}

// loadGeneration reads one generation's snapshot and the segment prefix it
// names, filling the snapshot's interval profiles.
func loadGeneration(dir string, gen int) (*Snapshot, segIndex, []string, error) {
	snap, seg, err := readSnapshot(snapPath(dir, gen))
	if err != nil {
		return nil, seg, nil, err
	}
	if snap.Engine == nil && seg.Profiles > 0 {
		return nil, seg, nil, corrupt(filepath.Base(snapPath(dir, gen)), "names %d segment profiles but holds no engine state", seg.Profiles)
	}
	rows, names, err := readSegment(segPath(dir), seg)
	if err != nil {
		return nil, seg, nil, fmt.Errorf("%w, named by %s", err, filepath.Base(snapPath(dir, gen)))
	}
	if snap.Engine != nil {
		snap.Engine.Profiles = rows
	}
	return snap, seg, names, nil
}

// Recover loads the newest valid snapshot whose config matches expect (nil
// skips the check), replays the WAL chain from that generation forward,
// truncates any torn tail, and leaves the manager appending to the last WAL
// in the chain. It must be called before the first Append on a dirty
// directory; on an empty directory it yields a fresh start whose WAL is
// wal-0.
//
// A generation is valid when its snapshot file and the segment prefix it
// names both validate; segment bytes past the chosen prefix are truncated
// by the next save. The chain matters when falling back: if the newest
// generation is corrupt, the previous one restores older state, but the
// dumps accepted after the newer (corrupt) snapshot live in the newer WAL —
// both WALs replay, in generation order. A torn WAL ends the chain: the
// records it lost have no durable copy, but their Seqs are therefore absent
// from the seen set, so a resuming tailer re-ingests them from the dump
// directory itself — nothing diverges, the dumps just travel through the
// pipeline again. WALs past a tear (only possible under external
// corruption, never a pure crash) are removed along with invalid snapshot
// files, so the directory recovery leaves behind is self-consistent.
// Recover refuses, touching nothing, in the cases choose lists.
func (m *Manager) Recover(expect *Config) (*Recovery, error) {
	if m.wal != nil {
		return nil, fmt.Errorf("checkpoint: Recover after Append")
	}
	c, err := choose(m.dir, expect)
	if err != nil {
		return nil, err
	}
	rec := &Recovery{Snapshot: c.snap, Skipped: c.skipped}
	for _, g := range c.invalid {
		obs.C("ckpt.recover.skipped").Inc()
		os.Remove(snapPath(m.dir, g))
	}
	m.seg = newSegment(segPath(m.dir), c.seg, c.names)
	m.gen = c.gen()
	chain := c.chain
	if len(chain) == 0 {
		chain = []int{m.gen}
	}
	validLen := int64(0)
	for i, g := range chain {
		records, vlen, torn, err := replayWAL(walPath(m.dir, g))
		if err != nil {
			return nil, err
		}
		rec.Records = append(rec.Records, records...)
		m.gen, validLen = g, vlen
		if torn {
			rec.TornWAL = true
			obs.C("ckpt.wal.torn").Inc()
			// The chain ends here; anything newer assumed dumps this WAL
			// lost, so it cannot be replayed on top.
			for _, later := range chain[i+1:] {
				os.Remove(walPath(m.dir, later))
			}
			break
		}
	}
	m.wal, err = openWAL(walPath(m.dir, m.gen), validLen, m.sync)
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// ensureWAL opens the current generation's WAL for a manager that skipped
// Recover (fresh directory).
func (m *Manager) ensureWAL() error {
	if m.wal != nil {
		return nil
	}
	_, validLen, _, err := replayWAL(walPath(m.dir, m.gen))
	if err != nil {
		return err
	}
	m.wal, err = openWAL(walPath(m.dir, m.gen), validLen, m.sync)
	return err
}

// Append logs accepted dumps, in order, under one fsync. Call it before
// handing them to the engine — write-ahead, so a crash between the two
// replays them.
func (m *Manager) Append(snaps ...*profile.Sample) error {
	if err := m.ensureWAL(); err != nil {
		return err
	}
	if err := m.wal.AppendSnapshot(snaps...); err != nil {
		return err
	}
	obs.C("ckpt.wal.records").Add(int64(len(snaps)))
	return nil
}

// AppendShed logs one deliberately-shed dump Seq.
func (m *Manager) AppendShed(seq int) error {
	if err := m.ensureWAL(); err != nil {
		return err
	}
	if err := m.wal.AppendShed(seq); err != nil {
		return err
	}
	obs.C("ckpt.wal.shed").Inc()
	return nil
}

// Save makes snap the new current generation: the interval profiles
// accepted since the previous save are appended to the profile segment and
// fsynced, then the snapshot, naming the segment prefix, is written
// atomically; the WAL rotates to the new generation and old generations are
// garbage-collected.
func (m *Manager) Save(snap *Snapshot) error {
	start := time.Now()
	var rows []interval.Row
	if snap.Engine != nil {
		rows = snap.Engine.Profiles
	}
	segBytes, err := m.seg.append(rows, m.sync)
	if err != nil {
		return err
	}
	n, err := writeSnapshot(snapPath(m.dir, snap.Accepted), snap, m.seg.index)
	if err != nil {
		return err
	}
	if m.wal != nil {
		if err := m.wal.Close(); err != nil {
			return err
		}
		m.wal = nil
	}
	m.gen = snap.Accepted
	wal, err := openWAL(walPath(m.dir, m.gen), 0, m.sync)
	if err != nil {
		return err
	}
	m.wal = wal
	obs.C("ckpt.saves").Inc()
	// Bytes this save wrote: the snapshot plus the segment records.
	obs.C("ckpt.save.bytes").Add(n + segBytes)
	obs.H("ckpt.save.latency").Observe(time.Since(start))
	return m.gc()
}

// gc removes generations older than the keepGenerations newest. WALs at or
// above the cutoff survive even without a matching snapshot file — they are
// links in the replay chain a fallback recovery needs. The profile segment
// is never shortened here: every kept generation names a prefix of it.
func (m *Manager) gc() error {
	gens, err := listGenerations(m.dir)
	if err != nil {
		return err
	}
	if len(gens) <= keepGenerations {
		return nil
	}
	cutoff := gens[len(gens)-keepGenerations]
	for _, g := range gens[:len(gens)-keepGenerations] {
		os.Remove(snapPath(m.dir, g))
		obs.C("ckpt.gc.removed").Inc()
	}
	for _, g := range listWALs(m.dir) {
		if g < cutoff {
			os.Remove(walPath(m.dir, g))
		}
	}
	return nil
}

// Close closes the open WAL.
func (m *Manager) Close() error {
	if m.wal == nil {
		return nil
	}
	err := m.wal.Close()
	m.wal = nil
	return err
}
