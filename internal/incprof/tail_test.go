package incprof_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
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
// order — the tail-side twin of a salvage ReadDir.
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

// The idle window is wall time since the last emit: a tail whose every
// directory scan outlasts Poll still ends within Idle plus one poll and one
// scan, plus the terminal sweep's own decode of the stuck dump. Counting
// nominal Poll steps instead would run this tail for about
// Idle/Poll × (Poll + scan) ≈ 1.8 s.
func TestTailDirIdleWindowIsWallTime(t *testing.T) {
	const (
		poll = 5 * time.Millisecond
		scan = 40 * time.Millisecond
		idle = 200 * time.Millisecond
	)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "slow.0"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A dump that never finishes decoding, slowly: every poll pays scan.
	slow := &profile.Format{
		Name:       "slow",
		FilePrefix: "slow.",
		Decode: func(io.Reader) (*profile.Sample, error) {
			time.Sleep(scan)
			return nil, errors.New("still being written")
		},
	}
	start := time.Now()
	res, err := incprof.TailDir(dir, &recordingSink{}, incprof.TailOptions{
		Format:  slow,
		Poll:    poll,
		Idle:    idle,
		Salvage: true,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) != 1 {
		t.Fatalf("skipped %+v, want the one stuck dump", res.Skipped)
	}
	// Scheduling slack on a loaded host; still far below the ~1.8 s the
	// poll-counting window takes.
	const slack = 150 * time.Millisecond
	if limit := idle + poll + 2*scan + slack; elapsed > limit {
		t.Fatalf("tail took %v, want <= %v", elapsed, limit)
	}
}

// lockedSink records emitted Seqs for a test that reads them while the tail
// is still running.
type lockedSink struct {
	mu   sync.Mutex
	seqs []int
}

func (l *lockedSink) Emit(s *profile.Sample) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seqs = append(l.seqs, s.Seq)
	return nil
}

func (l *lockedSink) snapshot() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.seqs...)
}

// A dump still being written in the middle of a decode chunk holds back
// everything after it until it decodes, and the tail keeps Seq order across
// chunk boundaries, serial or on the pool.
func TestTailDirHoldsBackBehindPartialDumpMidChunk(t *testing.T) {
	const n, partial = 150, 40
	src, err := incprof.NewDirStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := src.Put(tailSnap(i, int64(100*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	copyDump := func(dst string, seq int, whole bool) {
		data, err := os.ReadFile(src.PathFor(seq))
		if err != nil {
			t.Fatal(err)
		}
		if !whole {
			data = data[:len(data)/2]
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(src.PathFor(seq))), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []int{1, 4} {
		dir := t.TempDir()
		for i := 0; i < 100; i++ {
			copyDump(dir, i, i != partial)
		}
		sink := &lockedSink{}
		type outcome struct {
			res incprof.TailResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := incprof.TailDir(dir, sink, incprof.TailOptions{
				Poll:        5 * time.Millisecond,
				Idle:        500 * time.Millisecond,
				Parallelism: p,
			})
			done <- outcome{res, err}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for len(sink.snapshot()) < partial && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(60 * time.Millisecond) // a dozen polls past the partial dump
		if got := sink.snapshot(); len(got) != partial {
			t.Fatalf("parallelism %d: emitted %d dumps around a partial seq %d, want exactly the %d before it", p, len(got), partial, partial)
		}
		copyDump(dir, partial, true) // the write completes
		for i := 100; i < n; i++ {
			copyDump(dir, i, true)
		}
		o := <-done
		if o.err != nil {
			t.Fatal(o.err)
		}
		got := sink.snapshot()
		if o.res.Emitted != n || len(got) != n {
			t.Fatalf("parallelism %d: emitted %d (%d recorded), want %d", p, o.res.Emitted, len(got), n)
		}
		for i, seq := range got {
			if seq != i {
				t.Fatalf("parallelism %d: emit %d carried seq %d", p, i, seq)
			}
		}
	}
}
