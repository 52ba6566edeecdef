// Fuzz targets for every decoder recovery runs over bytes from disk: the
// snapshot file, the profile segment, and the WAL. Each must return a typed
// error or a valid result — never panic — and allocate in proportion to its
// input, whatever a length or count field claims. Every input is decoded
// twice: as given, and with its checksums recomputed, so mutations reach
// the payload decoders behind the CRC instead of stopping at it.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"github.com/incprof/incprof/internal/interval"
)

// allocLimit is what a decoder may allocate for an n-byte input: a fixed
// allowance plus a constant factor of the input.
func allocLimit(n int) uint64 { return 1<<20 + 512*uint64(n) }

// checkAllocs runs decode and fails if it allocated past allocLimit.
func checkAllocs(t *testing.T, n int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > allocLimit(n) {
		t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", n, got, allocLimit(n))
	}
}

// checkTyped fails unless err is nil or one of the package's typed
// validation errors.
func checkTyped(t *testing.T, err error) {
	t.Helper()
	var ce *corruptError
	var ve *versionError
	if err != nil && !errors.As(err, &ce) && !errors.As(err, &ve) {
		t.Fatalf("untyped error: %v", err)
	}
}

// fixFrames recomputes the CRC of every whole frame from off on.
func fixFrames(data []byte, off int) []byte {
	out := append([]byte(nil), data...)
	for len(out)-off >= walHeaderLen {
		plen := binary.LittleEndian.Uint32(out[off+1 : off+5])
		if uint64(plen) > uint64(len(out)-off-walHeaderLen) {
			break
		}
		next := off + walHeaderLen + int(plen)
		putFrameHeader(out[off:off+walHeaderLen], out[off], out[off+walHeaderLen:next])
		off = next
	}
	return out
}

// fixSnapshot recomputes a snapshot header's CRC over whatever payload
// follows it.
func fixSnapshot(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) >= snapHeaderLen {
		binary.LittleEndian.PutUint32(out[len(snapMagic)+12:], crc32.Checksum(out[snapHeaderLen:], castagnoli))
	}
	return out
}

// seedPayload is a snapshot payload in the shape the engine state had while
// it carried a mini-batch model: MiniBatch and Sites are fields this build
// no longer declares, kept as raw JSON so the fuzzer starts from a snapshot
// whose unknown fields the decoder must ignore.
const seedPayload = `{"Config":{"Seed":7,"KMax":8,"CoverageThreshold":0.95,"Selection":"elbow","Algorithm":"kmeans","FeatureKind":"","ExcludeMPI":false,"Robust":true,"GapPolicy":"split","Reorder":0,"RefreshEvery":0},` +
	`"Accepted":5,"LastSeq":4,"SeenSeqs":[0,1,2],"Meta":{"Intervals":5,"Dims":3,"K":2,"Gaps":0,"LateDrops":0},` +
	`"Engine":{"Snaps":5,"SinceRefresh":0,"Refreshes":1,"Profiles":null,` +
	`"Differencer":{"N":4,"Prev":null,"Robust":null,"Gaps":null,"Window":null,"Released":3,"LateDrops":0},` +
	`"Tracker":null,"MiniBatch":{"Centroids":[[1,2],[3,4]],"Counts":[2,3]},"Sites":null},` +
	`"Segment":{"Profiles":4,"Bytes":120}}`

func validSnapshotFile(t testing.TB) []byte {
	data := make([]byte, snapHeaderLen, snapHeaderLen+len(seedPayload))
	copy(data, snapMagic)
	binary.LittleEndian.PutUint32(data[len(snapMagic):], snapVersion)
	binary.LittleEndian.PutUint64(data[len(snapMagic)+4:], uint64(len(seedPayload)))
	data = fixSnapshot(append(data, seedPayload...))
	if _, _, err := decodeSnapshot("seed.snap", data); err != nil {
		t.Fatal(err)
	}
	return data
}

func FuzzReadSnapshot(f *testing.F) {
	valid := validSnapshotFile(f)
	f.Add(valid)
	f.Add(valid[:10]) // torn header
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(huge[len(snapMagic)+4:], 1<<32)
	f.Add(huge) // 4 GiB length field
	old := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(old[len(snapMagic):], 1)
	f.Add(old) // wrong version
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, fixSnapshot(data)} {
			var snap *Snapshot
			var seg segIndex
			var err error
			checkAllocs(t, len(in), func() { snap, seg, err = decodeSnapshot("fuzz.snap", in) })
			checkTyped(t, err)
			if err != nil {
				continue
			}
			// A decoded snapshot is one the writer can store again.
			again, err := encodeSnapshot(snap, seg)
			if err != nil {
				t.Fatalf("decoded snapshot does not encode: %v", err)
			}
			snap2, seg2, err := decodeSnapshot("again.snap", again)
			if err != nil || seg2 != seg || !reflect.DeepEqual(snap2, snap) {
				t.Fatalf("re-encoded snapshot differs: %v", err)
			}
		}
	})
}

// encodeSegment is a whole segment file holding rows.
func encodeSegment(rows []interval.Row) []byte {
	seg := newSegment("", segIndex{}, nil)
	buf := appendSegHeader(nil)
	for i := range rows {
		buf = seg.appendRecord(buf, &rows[i], i)
	}
	return buf
}

func FuzzReadSegment(f *testing.F) {
	valid := encodeSegment(segRows())
	f.Add(valid)
	f.Add(valid[:5]) // torn header
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[segHeaderLen+1:], 0xffffffff)
	f.Add(huge) // 4 GiB record length
	old := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(old[len(segMagic):], segVersion+1)
	f.Add(old) // wrong version
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, fixFrames(data, min(len(data), segHeaderLen))} {
			var rows []interval.Row
			var valid int
			var err error
			checkAllocs(t, len(in), func() { rows, _, valid, err = decodeSegment("fuzz.seg", in) })
			checkTyped(t, err)
			if valid > len(in) || (err == nil) != (valid == len(in)) {
				t.Fatalf("valid length %d of %d with error %v", valid, len(in), err)
			}
			// What decodes is what the writer would store for it.
			if len(rows) == 0 {
				continue
			}
			again, _, _, err := decodeSegment("again.seg", encodeSegment(rows))
			if err != nil || !sameRows(again, rows) {
				t.Fatalf("re-encoded profiles differ: %v", err)
			}
		}
	})
}

func validWALFile(t testing.TB) []byte {
	var out []byte
	frame := func(kind byte, payload []byte) {
		hdr := make([]byte, walHeaderLen)
		putFrameHeader(hdr, kind, payload)
		out = append(append(out, hdr...), payload...)
	}
	for seq := 0; seq < 3; seq++ {
		var b bytes.Buffer
		if err := dump(seq).Encode(&b); err != nil {
			t.Fatal(err)
		}
		frame(recSnapshot, b.Bytes())
	}
	frame(recShed, binary.LittleEndian.AppendUint64(nil, 9))
	return out
}

func FuzzReplayWAL(f *testing.F) {
	valid := validWALFile(f)
	f.Add(valid)
	f.Add(valid[:5]) // torn header
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[1:], 0xffffffff)
	f.Add(huge) // 4 GiB record length
	// A dump of another codec version: byte 4 of the payload is the
	// version varint.
	old := append([]byte(nil), valid...)
	old[walHeaderLen+4] = 9
	f.Add(fixFrames(old, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, fixFrames(data, 0)} {
			var recs []WALRecord
			var validLen int64
			var torn bool
			checkAllocs(t, len(in), func() { recs, validLen, torn = decodeWAL(in) })
			if validLen > int64(len(in)) || torn != (validLen < int64(len(in))) {
				t.Fatalf("valid length %d of %d, torn=%v", validLen, len(in), torn)
			}
			if int64(len(recs)*walHeaderLen) > validLen {
				t.Fatalf("%d records in %d valid bytes", len(recs), validLen)
			}
		}
	})
}
