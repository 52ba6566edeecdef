package incprof

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/profile"
)

// fuzzSnapshot builds a small valid snapshot for seeding the corpus.
func fuzzSnapshot(seq int) *profile.Sample {
	s := &profile.Sample{
		Seq:          seq,
		Timestamp:    time.Duration(seq+1) * time.Second,
		SamplePeriod: 10 * time.Millisecond,
		Funcs: []profile.FuncRecord{
			{Name: "compute", Samples: int64(90 * (seq + 1)), SelfTime: time.Duration(seq+1) * 900 * time.Millisecond, Calls: int64(10 * (seq + 1))},
			{Name: "halo", Samples: int64(10 * (seq + 1)), SelfTime: time.Duration(seq+1) * 100 * time.Millisecond, Calls: int64(20 * (seq + 1))},
		},
	}
	s.Normalize()
	return s
}

// FuzzSnapshotsSalvage hardens the salvage read end to end: a dump file
// holding arbitrary bytes must never panic the read — it is either emitted or
// reported in TailResult.Skipped — and whatever survives must be safe to feed
// to the robust differencing path.
func FuzzSnapshotsSalvage(f *testing.F) {
	var valid bytes.Buffer
	if err := fuzzSnapshot(1).Encode(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add([]byte(profile.Magic))
	f.Add([]byte("IGMN\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		st, err := NewDirStore(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		// One known-good dump beside the fuzzed one: salvage must always
		// account for both files, loaded or skipped.
		if err := st.Put(fuzzSnapshot(0)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "gmon.out.1"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		snaps, rep, err := salvageRead(st)
		if err != nil {
			t.Fatalf("salvage must absorb corrupt dumps, got %v", err)
		}
		if rep.Emitted+len(rep.Skipped) != 2 {
			t.Fatalf("emitted %d + skipped %d != 2 files", rep.Emitted, len(rep.Skipped))
		}
		if len(snaps) != rep.Emitted {
			t.Fatalf("len(snaps)=%d but result.Emitted=%d", len(snaps), rep.Emitted)
		}
		// The survivors feed the repair path without panicking; at least
		// the known-good dump is always there.
		res, err := interval.DifferenceRobust(snaps, interval.RobustOptions{})
		if err != nil {
			t.Fatalf("DifferenceRobust on salvaged snapshots: %v", err)
		}
		if len(res.Profiles) == 0 {
			t.Fatal("no profiles from salvaged snapshots")
		}
	})
}
