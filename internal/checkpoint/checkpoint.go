// Package checkpoint is the durability layer under the streaming engine: it
// persists the engine's full incremental state (stream.EngineState) as
// atomic, checksummed snapshot files plus a write-ahead log of the accepted
// dumps since the last snapshot, and recovers the newest consistent state
// after a crash. The recovery contract is exact: kill the process between
// any two accepted dumps, restore from disk, replay the WAL, resume the
// stream — the terminal report is byte-identical to the uninterrupted run.
//
// A state directory holds generations of
//
//	ckpt-<accepted>.snap — engine state after <accepted> accepted dumps
//	wal-<accepted>.log   — dumps accepted after that snapshot
//
// plus one profiles.seg, the append-only profile segment: the engine's
// interval profiles, each written once by the save that first covers it.
// A snapshot names the prefix of the segment its state needs, so its own
// size does not grow with the run's history.
//
// Snapshots are written to a temp file, fsynced, and renamed into place, so
// a crash mid-write leaves the previous generation intact; each file carries
// a magic, a format version, and a CRC-32C over the payload, so a torn or
// corrupted snapshot is detected and recovery falls back to the previous
// generation (whose WAL still holds everything since). WAL records are
// individually checksummed and the tail is truncated at the first invalid
// record, so a crash mid-append loses at most the record being written —
// which the engine had not processed durably anyway.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/incprof/incprof/internal/stream"
)

const (
	// snapMagic opens every snapshot file.
	snapMagic = "INCPCKPT"
	// snapVersion is the snapshot format version this package reads and
	// writes. Version 1 carried the interval profiles in the snapshot's
	// JSON; version 2 keeps them in the profile segment.
	snapVersion = 2
)

// snapHeaderLen is the magic, version, payload length and payload CRC.
const snapHeaderLen = len(snapMagic) + 4 + 8 + 4

// castagnoli is the CRC-32C table shared by snapshots and WAL records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Config fingerprints the analysis a state directory belongs to. Recover
// refuses to load a snapshot whose stored config differs from the expected
// one: resuming under different analysis options would silently produce a
// report that matches neither run.
type Config struct {
	Seed              uint64
	KMax              int
	CoverageThreshold float64
	Selection         string
	Algorithm         string
	FeatureKind       string
	ExcludeMPI        bool
	Robust            bool
	GapPolicy         string
	Reorder           int
	RefreshEvery      int
}

// Meta summarizes a snapshot for operators (fsck) without decoding the full
// engine state.
type Meta struct {
	// Intervals is the number of profiles the engine held.
	Intervals int
	// Dims is the feature-space dimensionality at snapshot time.
	Dims int
	// K is the last refresh's selected phase count, 0 before the first.
	K int
	// Gaps and LateDrops count repairs and window drops so far.
	Gaps      int
	LateDrops int
}

// Snapshot is one persisted engine state.
type Snapshot struct {
	// Config fingerprints the analysis; Recover verifies it.
	Config Config
	// Accepted is the number of dumps accepted when the snapshot was
	// taken; it names the snapshot's generation and its WAL.
	Accepted int
	// LastSeq is the highest dump Seq accepted so far, -1 if none.
	LastSeq int
	// SeenSeqs lists every dump Seq the pipeline has disposed of —
	// accepted into the engine or deliberately shed — sorted ascending.
	// A resuming tailer skips these files.
	SeenSeqs []int
	// Meta is the operator summary.
	Meta Meta
	// Engine is the full engine state.
	Engine *stream.EngineState
}

// snapPath names a snapshot file for a generation.
func snapPath(dir string, accepted int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016d.snap", accepted))
}

// walPath names the WAL for a generation.
func walPath(dir string, accepted int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", accepted))
}

// snapPayload is a snapshot file's JSON payload: the snapshot without its
// interval profiles, and the segment prefix that holds them.
type snapPayload struct {
	*Snapshot
	Segment segIndex
}

// corruptError is a state file that fails validation — torn, checksum
// mismatch, undecodable. Recovery falls back past it.
type corruptError struct{ file, reason string }

func (e *corruptError) Error() string { return "checkpoint: " + e.file + ": " + e.reason }

func corrupt(file, format string, args ...any) error {
	return &corruptError{file: file, reason: fmt.Sprintf(format, args...)}
}

// versionError is a snapshot written in another format version. Recovery
// refuses it instead of falling back past it: the file is intact, only this
// build cannot read it.
type versionError struct {
	file string
	got  uint32
}

func (e *versionError) Error() string {
	return fmt.Sprintf("checkpoint: %s: unsupported version %d (this build reads and writes snapshot format version %d)", e.file, e.got, snapVersion)
}

// writeSnapshot writes snap atomically to path — temp file in the same
// directory, header + payload, fsync, rename, fsync directory — naming seg
// as the segment prefix that holds its interval profiles.
func writeSnapshot(path string, snap *Snapshot, seg segIndex) (int64, error) {
	payload, err := encodeSnapshot(snap, seg)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	syncDir(dir)
	return int64(len(payload)), nil
}

// encodeSnapshot returns a snapshot file's bytes: header, then the JSON
// payload with the engine's profiles left out.
func encodeSnapshot(snap *Snapshot, seg segIndex) ([]byte, error) {
	stored := *snap
	if snap.Engine != nil {
		eng := *snap.Engine
		eng.Profiles = nil
		stored.Engine = &eng
	}
	payload, err := json.Marshal(snapPayload{Snapshot: &stored, Segment: seg})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding snapshot: %w", err)
	}
	out := make([]byte, snapHeaderLen, snapHeaderLen+len(payload))
	copy(out, snapMagic)
	off := len(snapMagic)
	binary.LittleEndian.PutUint32(out[off:], snapVersion)
	binary.LittleEndian.PutUint64(out[off+4:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[off+12:], crc32.Checksum(payload, castagnoli))
	return append(out, payload...), nil
}

// readSnapshot loads and validates one snapshot file, returning the segment
// prefix that holds its interval profiles (its Engine.Profiles is empty).
func readSnapshot(path string) (*Snapshot, segIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, segIndex{}, err
	}
	return decodeSnapshot(filepath.Base(path), data)
}

// decodeSnapshot validates and decodes a snapshot file's bytes. The payload
// length field is checked against the bytes present, never trusted for an
// allocation.
func decodeSnapshot(name string, data []byte) (*Snapshot, segIndex, error) {
	if len(data) < snapHeaderLen {
		return nil, segIndex{}, corrupt(name, "short header")
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, segIndex{}, corrupt(name, "bad magic")
	}
	off := len(snapMagic)
	if v := binary.LittleEndian.Uint32(data[off:]); v != snapVersion {
		return nil, segIndex{}, &versionError{file: name, got: v}
	}
	plen := binary.LittleEndian.Uint64(data[off+4:])
	want := binary.LittleEndian.Uint32(data[off+12:])
	payload := data[snapHeaderLen:]
	if plen != uint64(len(payload)) {
		return nil, segIndex{}, corrupt(name, "torn payload: header says %d bytes, file holds %d", plen, len(payload))
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, segIndex{}, corrupt(name, "checksum mismatch (%08x != %08x)", got, want)
	}
	var p snapPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, segIndex{}, corrupt(name, "decoding payload: %v", err)
	}
	if p.Snapshot == nil {
		return nil, segIndex{}, corrupt(name, "empty payload")
	}
	if p.Engine != nil && p.Engine.Profiles != nil {
		return nil, segIndex{}, corrupt(name, "payload carries interval profiles; version %d keeps them in the segment", snapVersion)
	}
	return p.Snapshot, p.Segment, nil
}

// syncDir fsyncs a directory so a rename is durable; errors are ignored —
// on filesystems without directory sync the rename is still atomic.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
