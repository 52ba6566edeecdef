package incprof_test

import (
	"os"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/profile"
)

func tailSnap(seq int, samples int64) *profile.Sample {
	period := 10 * time.Millisecond
	return &profile.Sample{
		Seq:          seq,
		Timestamp:    time.Duration(seq+1) * time.Second,
		SamplePeriod: period,
		Funcs: []profile.FuncRecord{{
			Name:     "work",
			Samples:  samples,
			SelfTime: time.Duration(samples) * period,
			Calls:    samples / 10,
		}},
	}
}

// A tail over a directory still being written emits every dump, in order,
// and its snapshots decode identically to the finished-directory batch load.
func TestTailDirFollowsLiveWrites(t *testing.T) {
	dir := t.TempDir()
	st, err := incprof.NewDirStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	go func() {
		cum := int64(0)
		for i := 0; i < n; i++ {
			cum += int64(50 + 10*i)
			_ = st.Put(tailSnap(i, cum))
			time.Sleep(30 * time.Millisecond)
		}
	}()
	sink := &recordingSink{}
	res, err := incprof.TailDir(dir, sink, incprof.TailOptions{
		Poll: 10 * time.Millisecond,
		Idle: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != n || len(sink.snaps) != n {
		t.Fatalf("tail emitted %d dumps, want %d", res.Emitted, n)
	}
	batch, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sink.snaps {
		if s.Seq != i || s.Funcs[0].Samples != batch[i].Funcs[0].Samples {
			t.Fatalf("tailed dump %d diverges from batch load (seq %d)", i, s.Seq)
		}
	}
	if res.Last == nil || res.Last.Seq != n-1 {
		t.Fatalf("Last = %+v, want seq %d", res.Last, n-1)
	}
}

// A corrupt dump fails a strict tail by name, like the strict batch load.
func TestTailDirStrictFailsOnCorruptDump(t *testing.T) {
	dir := t.TempDir()
	st, err := incprof.NewDirStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Put(tailSnap(i, int64(100*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(st.PathFor(1), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	_, err = incprof.TailDir(dir, sink, incprof.TailOptions{
		Poll: 5 * time.Millisecond,
		Idle: 30 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("strict tail accepted a corrupt dump")
	}
	// Order preserved: nothing past the corrupt file was emitted early.
	if len(sink.snaps) != 1 || sink.snaps[0].Seq != 0 {
		t.Fatalf("emitted %d dumps before failing, want just seq 0", len(sink.snaps))
	}
}

// Salvage mode skips the corrupt dump, reports it, and keeps the rest in
// order — the tail-side twin of SnapshotsSalvageP.
func TestTailDirSalvageSkipsCorruptDump(t *testing.T) {
	dir := t.TempDir()
	st, err := incprof.NewDirStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := st.Put(tailSnap(i, int64(100*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(st.PathFor(2), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	var skips []incprof.SkippedFile
	res, err := incprof.TailDir(dir, sink, incprof.TailOptions{
		Poll:    5 * time.Millisecond,
		Idle:    30 * time.Millisecond,
		Salvage: true,
		OnSkip:  func(sk incprof.SkippedFile) { skips = append(skips, sk) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != 3 {
		t.Fatalf("emitted %d, want 3", res.Emitted)
	}
	wantSeqs := []int{0, 1, 3}
	for i, s := range sink.snaps {
		if s.Seq != wantSeqs[i] {
			t.Fatalf("dump %d has seq %d, want %d", i, s.Seq, wantSeqs[i])
		}
	}
	if len(skips) != 1 || skips[0].Seq != 2 || len(res.Skipped) != 1 {
		t.Fatalf("skips = %+v, res.Skipped = %+v", skips, res.Skipped)
	}
}
