// wal.go is the write-ahead log between snapshots: every dump the live
// pipeline accepts is appended (in gmon binary encoding) and fsynced before
// the engine processes it, a batch of dumps under one fsync, and every dump
// the admission queue deliberately sheds leaves a marker, so the accepted
// stream — and the seen-seq set a resuming tailer needs — can be replayed
// exactly. Records are individually framed and checksummed; replay stops at
// the first invalid record and reports the offset of the last valid one,
// which Open then truncates to, so a torn tail (crash mid-append) costs at
// most the records of the append being written.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/profile"
)

// WAL record kinds.
const (
	// recSnapshot frames one accepted dump (gmon binary encoding).
	recSnapshot byte = 'S'
	// recShed frames one deliberately-shed dump Seq (8 bytes LE).
	recShed byte = 'G'
)

// walHeaderLen is the record frame header — kind, payload length, payload
// CRC-32C — shared by WAL and profile-segment records.
const walHeaderLen = 1 + 4 + 4

// putFrameHeader fills hdr (walHeaderLen bytes) with the frame header for
// payload.
func putFrameHeader(hdr []byte, kind byte, payload []byte) {
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(payload, castagnoli))
}

// nextFrame reads the record frame at data[off:]. ok is false when the
// frame is torn (its header or payload runs past the data) or its payload
// fails the checksum; a reader stops there. The length field is trusted
// only after it is checked against the bytes actually present.
func nextFrame(data []byte, off int) (kind byte, payload []byte, next int, ok bool) {
	if len(data)-off < walHeaderLen {
		return 0, nil, off, false
	}
	kind = data[off]
	plen := binary.LittleEndian.Uint32(data[off+1 : off+5])
	want := binary.LittleEndian.Uint32(data[off+5 : off+9])
	if uint64(plen) > uint64(len(data)-off-walHeaderLen) {
		return 0, nil, off, false
	}
	next = off + walHeaderLen + int(plen)
	payload = data[off+walHeaderLen : next]
	if crc32.Checksum(payload, castagnoli) != want {
		return 0, nil, off, false
	}
	return kind, payload, next, true
}

// WALRecord is one replayed record: exactly one of Snap or Shed is set.
type WALRecord struct {
	// Snap is an accepted dump, nil for a shed marker.
	Snap *profile.Sample
	// Shed is the shed dump's Seq; valid when Snap is nil.
	Shed int
}

// WAL is an append-only log open for writing. It is not safe for concurrent
// use, matching the single-producer live path that feeds it.
type WAL struct {
	f     *os.File
	fsync bool
	buf   bytes.Buffer
}

// openWAL opens (creating or appending to) the WAL at path, truncated to
// validLen when the existing tail is torn. fsync selects one fsync per
// append call.
func openWAL(path string, validLen int64, fsync bool) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f, fsync: fsync}, nil
}

// begin starts a record in the WAL's buffer: its header is reserved, and
// the caller writes the payload after it.
func (w *WAL) begin() {
	var hdr [walHeaderLen]byte
	w.buf.Reset()
	w.buf.Write(hdr[:])
}

// write fills in the header of the record in the buffer and writes the
// framed record in one call.
func (w *WAL) write(kind byte) error {
	b := w.buf.Bytes()
	putFrameHeader(b, kind, b[walHeaderLen:])
	_, err := w.f.Write(b)
	return err
}

// commit makes every record written so far durable: one fsync, whatever
// the number of records, unless the WAL was opened without fsync.
func (w *WAL) commit() error {
	if !w.fsync {
		return nil
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return err
	}
	obs.C("ckpt.wal.syncs").Inc()
	obs.H("ckpt.wal.fsync.latency").Observe(time.Since(start))
	return nil
}

// AppendSnapshot logs accepted dumps ahead of the engine processing them,
// one snapshot record each: one write per record, then one fsync for all of
// them (group commit).
func (w *WAL) AppendSnapshot(snaps ...*profile.Sample) error {
	for _, s := range snaps {
		start := time.Now()
		w.begin()
		if err := s.Encode(&w.buf); err != nil {
			return fmt.Errorf("checkpoint: encoding WAL dump: %w", err)
		}
		if err := w.write(recSnapshot); err != nil {
			return err
		}
		obs.H("ckpt.wal.append.latency").Observe(time.Since(start))
	}
	return w.commit()
}

// AppendShed logs one deliberately-shed dump Seq.
func (w *WAL) AppendShed(seq int) error {
	w.begin()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(seq)))
	w.buf.Write(b[:])
	if err := w.write(recShed); err != nil {
		return err
	}
	return w.commit()
}

// Close closes the log. It needs no fsync of its own: every append call
// already committed what it wrote, unless the WAL runs without fsync.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// replayWAL reads every valid record from path. It returns the records, the
// byte offset of the end of the last valid record (the length Open should
// truncate to before appending), and whether the tail was torn or corrupt.
// A missing file is an empty, untorn log.
func replayWAL(path string) (recs []WALRecord, validLen int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	recs, validLen, torn = decodeWAL(data)
	return recs, validLen, torn, nil
}

// decodeWAL is replayWAL over a log's bytes: it never fails, it stops at the
// first record that is torn, fails its checksum, or does not decode.
func decodeWAL(data []byte) (recs []WALRecord, validLen int64, torn bool) {
	off := 0
	for off < len(data) {
		kind, payload, next, ok := nextFrame(data, off)
		if !ok {
			return recs, int64(off), true
		}
		switch kind {
		case recSnapshot:
			s, err := profile.Decode(bytes.NewReader(payload))
			if err != nil {
				// The frame checksum passed but the payload does not
				// decode: treat as corruption, stop here.
				return recs, int64(off), true
			}
			recs = append(recs, WALRecord{Snap: s})
		case recShed:
			if len(payload) != 8 {
				return recs, int64(off), true
			}
			recs = append(recs, WALRecord{Shed: int(int64(binary.LittleEndian.Uint64(payload)))})
		default:
			return recs, int64(off), true
		}
		off = next
	}
	return recs, int64(off), false
}

// listGenerations returns the snapshot generations present in dir, sorted
// ascending by accepted count.
func listGenerations(dir string) ([]int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
	if err != nil {
		return nil, err
	}
	var gens []int
	for _, m := range matches {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(m), "ckpt-%d.snap", &n); err == nil {
			gens = append(gens, n)
		}
	}
	sort.Ints(gens)
	return gens, nil
}
