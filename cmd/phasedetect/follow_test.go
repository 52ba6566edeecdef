package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/incprof/incprof/internal/checkpoint"
	"github.com/incprof/incprof/internal/incprof"
)

// readChunk is the directory reader's chunk: a catch-up hands the engine
// at most this many dumps per batch.
const readChunk = 64

// writeDumps files the first n dumps of corpusOf(n) under a fresh
// directory and returns it.
func writeDumps(t *testing.T, n int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "dumps")
	st, err := incprof.NewDirStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range corpusOf(n) {
		if err := st.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// mustRun runs phasedetect in process and returns its stdout.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := runCapture(args...)
	if code != 0 {
		t.Fatalf("phasedetect %s: exit %d: %s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// A -follow over a finished directory catches up in read chunks within one
// directory pass: one live label per interval, exactly one intermediate
// refresh (at the pass's end, once it has caught up), one WAL fsync per
// batch piece (a chunk, split at each snapshot), and the batch report.
func TestFollowCatchUpReadsInBatches(t *testing.T) {
	const n, every = 150, 20
	dir := writeDumps(t, n)
	batch := mustRun(t, "-dir", dir)
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	follow := mustRun(t, "-dir", dir, "-follow", "-follow-poll", "5ms", "-follow-idle", "150ms",
		"-checkpoint-dir", filepath.Join(t.TempDir(), "state"), "-checkpoint-every", fmt.Sprint(every),
		"-metrics", metrics)

	chunks := (n + readChunk - 1) / readChunk
	if got := strings.Count(follow, "\nlive: refresh "); got != 1 {
		t.Errorf("%d live: refresh lines over a %d-dump catch-up, want exactly one", got, n)
	}
	if tail := fmt.Sprintf(" over %d intervals, %d clustered\n", n, n); !strings.Contains(follow, tail) {
		t.Errorf("no live: refresh line covers all %d intervals:\n%s", n, follow)
	}
	if got := strings.Count(follow, "live: interval "); got != n {
		t.Errorf("%d live: interval lines, want %d", got, n)
	}
	if got, _ := stripLive(follow); got != batch {
		t.Fatalf("-follow report differs from the batch report:\n%s\n--- batch\n%s", got, batch)
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var m struct{ Counters map[string]int64 }
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	saves, syncs := m.Counters["ckpt.saves"], m.Counters["ckpt.wal.syncs"]
	if saves != n/every || m.Counters["ckpt.wal.records"] != n {
		t.Fatalf("ckpt.saves = %d, ckpt.wal.records = %d; want %d and %d", saves, m.Counters["ckpt.wal.records"], n/every, n)
	}
	if syncs == 0 || syncs > int64(chunks)+saves {
		t.Fatalf("ckpt.wal.syncs = %d, want 1 to %d (chunks + saves)", syncs, int64(chunks)+saves)
	}
}

// The batched catch-up keeps the checkpoint positions a per-dump run had:
// 90 dumps with -checkpoint-every 20 leave a snapshot at 80 plus 10 WAL
// records, and -resume starts from exactly there.
func TestFollowCheckpointPositionsUnderBatches(t *testing.T) {
	dir := writeDumps(t, 90)
	state := filepath.Join(t.TempDir(), "state")
	args := []string{"-dir", dir, "-follow", "-follow-poll", "5ms", "-follow-idle", "100ms",
		"-checkpoint-dir", state, "-checkpoint-every", "20"}
	first, _ := stripLive(mustRun(t, args...))
	rep, err := checkpoint.Fsck(state)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecoverGeneration != 80 || rep.RecoverRecords != 10 {
		t.Fatalf("state holds generation %d plus %d WAL records, want 80 plus 10", rep.RecoverGeneration, rep.RecoverRecords)
	}
	resumed := mustRun(t, append(args, "-resume")...)
	if want := "live: resume: snapshot at 80 accepted dumps, 10 WAL records replayed\n"; !strings.Contains(resumed, want) {
		t.Fatalf("-resume output lacks %q:\n%s", want, resumed)
	}
	if got, _ := stripLive(resumed); got != first {
		t.Fatalf("resumed report differs from the first run's:\n%s\n--- first\n%s", got, first)
	}
}
