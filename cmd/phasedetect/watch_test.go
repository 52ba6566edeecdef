package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/profile"
)

// A -follow fed one dump at a time, each renamed in a little more than a
// poll after the last, reports what batch does. On Linux the tail learns the
// dumps from its directory watch: a tail that listed on every poll would
// list at least once per dump, this one lists to seed, every half idle
// window to verify the watch, every poll of the idle window's last quarter,
// and to finish.
func TestFollowWatchListsFarBelowPolls(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the directory watch is inotify, Linux only")
	}
	const n, poll, idle = 150, 10 * time.Millisecond, 400 * time.Millisecond
	src := writeDumps(t, n)
	batch := mustRun(t, "-dir", src)
	gmon, _ := profile.Lookup("gmon")
	dir := t.TempDir()
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	type outcome struct {
		code           int
		stdout, stderr string
	}
	done := make(chan outcome, 1)
	go func() {
		code, stdout, stderr := runCapture("-dir", dir, "-follow", "-follow-poll", poll.String(), "-follow-idle", idle.String(),
			"-metrics", metrics, "-obs-full")
		done <- outcome{code, stdout, stderr}
	}()
	for i := 0; i < n; i++ {
		name := gmon.FileName(i)
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		tmp := filepath.Join(dir, ".incoming")
		if err := os.WriteFile(tmp, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(poll + time.Millisecond)
	}
	o := <-done
	if o.code != 0 {
		t.Fatalf("phasedetect -follow: exit %d: %s", o.code, o.stderr)
	}
	if got, _ := stripLive(o.stdout); got != batch {
		t.Fatalf("-follow report differs from the batch report:\n%s\n--- batch\n%s", got, batch)
	}
	f, err := os.Open(metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var m struct{ Counters map[string]int64 } // the first of the -obs-full documents
	if err := json.NewDecoder(f).Decode(&m); err != nil {
		t.Fatal(err)
	}
	listings, fallbacks := m.Counters["incprof.read.listings"], m.Counters["incprof.read.fallbacks"]
	t.Logf("%d dumps, %d listings, %d fallbacks", n, listings, fallbacks)
	if listings == 0 || listings*4 > n || fallbacks != 0 {
		t.Fatalf("%d listings and %d fallbacks for %d dumps each a poll apart; want 1 to %d listings and no fallback",
			listings, fallbacks, n, n/4)
	}
}
