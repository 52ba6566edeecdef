package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/profile"
)

func testSnap(accepted int) *Snapshot {
	return &Snapshot{
		Config:   Config{Seed: 7, KMax: 8, CoverageThreshold: 0.95, Selection: "elbow", Algorithm: "kmeans", Robust: true, GapPolicy: "split"},
		Accepted: accepted,
		LastSeq:  accepted - 1,
		SeenSeqs: []int{0, 1, 2},
		Meta:     Meta{Intervals: accepted, Dims: 3, K: 2},
	}
}

func dump(seq int) *profile.Sample {
	return &profile.Sample{
		Seq:          seq,
		Timestamp:    time.Duration(seq+1) * time.Second,
		SamplePeriod: 10 * time.Millisecond,
		Funcs: []profile.FuncRecord{
			{Name: "work", Samples: int64(100 * (seq + 1)), SelfTime: time.Duration(seq+1) * time.Second, Calls: int64(seq + 1)},
		},
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt-0000000000000005.snap")
	want := testSnap(5)
	if _, err := writeSnapshot(path, want, segIndex{}); err != nil {
		t.Fatal(err)
	}
	got, _, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Accepted != want.Accepted || got.LastSeq != want.LastSeq || got.Config != want.Config || got.Meta != want.Meta {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
}

func TestSnapshotFileRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt-0000000000000001.snap")
	if _, err := writeSnapshot(path, testSnap(1), segIndex{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"flipped payload byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0xff
			return c
		}, "checksum"},
		{"torn payload", func(b []byte) []byte { return b[:len(b)-5] }, "torn"},
		{"short header", func(b []byte) []byte { return b[:4] }, "short header"},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}, "bad magic"},
		{"future version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(snapMagic)] = 99
			return c
		}, "unsupported version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, "mutated.snap")
			if err := os.WriteFile(p, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := readSnapshot(p)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want mention of %q", err, tc.wantSub)
			}
		})
	}
}

func TestWALRoundTripAndShedMarkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0000000000000000.log")
	w, err := openWAL(path, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 4; seq++ {
		if err := w.AppendSnapshot(dump(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendShed(9); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, validLen, torn, err := replayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("clean WAL reported torn")
	}
	if validLen != fileSize(path) {
		t.Fatalf("validLen %d != file size %d", validLen, fileSize(path))
	}
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i := 0; i < 4; i++ {
		if recs[i].Snap == nil || recs[i].Snap.Seq != i {
			t.Fatalf("record %d: %+v", i, recs[i])
		}
	}
	if recs[4].Snap != nil || recs[4].Shed != 9 {
		t.Fatalf("shed marker mangled: %+v", recs[4])
	}
}

func TestWALTornTailTruncatesToLastValidRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0000000000000000.log")
	w, err := openWAL(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 3; seq++ {
		if err := w.AppendSnapshot(dump(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	clean := fileSize(path)

	// A crash mid-append leaves a partial frame.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{'S', 0xff, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, validLen, torn, err := replayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Fatal("partial frame not reported torn")
	}
	if validLen != clean {
		t.Fatalf("validLen %d, want %d", validLen, clean)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}

	// Re-opening truncates the tail and appending continues cleanly.
	w, err = openWAL(path, validLen, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSnapshot(dump(3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, torn, err = replayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn || len(recs) != 4 {
		t.Fatalf("after truncate+append: torn=%v records=%d, want clean 4", torn, len(recs))
	}
}

func TestWALCorruptMidRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0000000000000000.log")
	w, err := openWAL(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSnapshot(dump(0)); err != nil {
		t.Fatal(err)
	}
	afterFirst := fileSize(path)
	if err := w.AppendSnapshot(dump(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the second record's payload.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	off := afterFirst + walHeaderLen + 2
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, validLen, torn, err := replayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !torn || len(recs) != 1 || validLen != afterFirst {
		t.Fatalf("corrupt record: torn=%v records=%d validLen=%d, want torn with 1 record at %d", torn, len(recs), validLen, afterFirst)
	}
}

func TestManagerConfigMismatchRefusesResume(t *testing.T) {
	dir := t.TempDir()
	if _, err := writeSnapshot(snapPath(dir, 3), testSnap(3), segIndex{}); err != nil {
		t.Fatal(err)
	}
	m, err := Open(dir, ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	other := testSnap(3).Config
	other.Seed = 99
	_, err = m.Recover(&other)
	if err == nil || !strings.Contains(err.Error(), "different analysis options") {
		t.Fatalf("config mismatch err = %v", err)
	}
}

func TestManagerGCKeepsTwoGenerationsAndChainWALs(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(nil); err != nil {
		t.Fatal(err)
	}
	for _, gen := range []int{2, 4, 6, 8} {
		if err := m.Append(dump(gen)); err != nil {
			t.Fatal(err)
		}
		if err := m.Save(testSnap(gen)); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := listGenerations(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 6 || gens[1] != 8 {
		t.Fatalf("generations after gc: %v, want [6 8]", gens)
	}
	for _, g := range listWALs(dir) {
		if g < 6 {
			t.Fatalf("stale WAL generation %d survived gc: %v", g, listWALs(dir))
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestManagerFallsBackPastCorruptSnapshotAndReplaysChain(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(nil); err != nil {
		t.Fatal(err)
	}
	// Gen 2 snapshot, then WAL records 2,3, then gen 4 snapshot, then 4,5.
	for seq := 0; seq < 2; seq++ {
		if err := m.Append(dump(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Save(testSnap(2)); err != nil {
		t.Fatal(err)
	}
	for seq := 2; seq < 4; seq++ {
		if err := m.Append(dump(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Save(testSnap(4)); err != nil {
		t.Fatal(err)
	}
	for seq := 4; seq < 6; seq++ {
		if err := m.Append(dump(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest snapshot: recovery must fall back to gen 2 and
	// replay BOTH wal-2 (records 2,3) and wal-4 (records 4,5).
	path := snapPath(dir, 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m2.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || rec.Snapshot.Accepted != 2 {
		t.Fatalf("fallback snapshot = %+v, want generation 2", rec.Snapshot)
	}
	if len(rec.Skipped) != 1 {
		t.Fatalf("skipped = %v, want the corrupt gen-4 snapshot", rec.Skipped)
	}
	if len(rec.Records) != 4 {
		t.Fatalf("chain replayed %d records, want 4 (both WALs)", len(rec.Records))
	}
	for i, want := range []int{2, 3, 4, 5} {
		if rec.Records[i].Snap == nil || rec.Records[i].Snap.Seq != want {
			t.Fatalf("chain record %d = %+v, want seq %d", i, rec.Records[i], want)
		}
	}
	// The corrupt snapshot file is gone; the directory is consistent.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt snapshot not removed: %v", err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}
