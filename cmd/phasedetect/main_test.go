package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/profile"
)

var update = flag.Bool("update", false, "rewrite the golden reports under testdata")

// runCapture runs the command in process and returns its exit code, stdout
// and stderr.
func runCapture(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// corpus is a small three-phase run: 36 cumulative one-second dumps over a
// solver, a halo exchange, an I/O phase and an MPI call the default feature
// space excludes. Phases rotate every six intervals.
func corpus() []*profile.Sample { return corpusOf(36) }

// corpusOf is corpus run for n dumps.
func corpusOf(n int) []*profile.Sample {
	type rate struct {
		fn             string
		samples, calls int64
	}
	phases := [][]rate{
		{{"solve", 80, 40}, {"halo_exchange", 15, 200}, {"MPI_Allreduce", 5, 10}},
		{{"assemble", 60, 6}, {"precondition", 35, 12}, {"MPI_Allreduce", 5, 10}},
		{{"write_checkpoint", 70, 1}, {"compress", 25, 900}, {"solve", 5, 2}},
	}
	cum := map[string]*profile.FuncRecord{}
	var out []*profile.Sample
	for seq := 0; seq < n; seq++ {
		for j, r := range phases[seq/6%3] {
			f := cum[r.fn]
			if f == nil {
				f = &profile.FuncRecord{Name: r.fn}
				cum[r.fn] = f
			}
			n := r.samples + int64((seq*7+j*3)%5) // a little jitter
			f.Samples += n
			f.SelfTime += time.Duration(n) * 10 * time.Millisecond
			f.Calls += r.calls
		}
		s := &profile.Sample{Seq: seq, Timestamp: time.Duration(seq+1) * time.Second, SamplePeriod: 10 * time.Millisecond}
		for _, f := range cum {
			s.Funcs = append(s.Funcs, *f)
		}
		s.Arcs = []profile.Arc{{Caller: "main", Callee: "solve", Count: cum["solve"].Calls}}
		s.Normalize()
		out = append(out, s)
	}
	return out
}

// writeCorpus files the corpus under dir through st.
func writeCorpus(t *testing.T, st incprof.Store) {
	t.Helper()
	for _, s := range corpus() {
		if err := st.Put(s); err != nil {
			t.Fatal(err)
		}
	}
}

// golden compares got with testdata/name, or rewrites it under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("report differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// stripLive drops the "live:" lines a -follow run adds to the batch report.
func stripLive(s string) (string, int) {
	var b strings.Builder
	live := 0
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(line, "live:") {
			live++
			continue
		}
		b.WriteString(line)
	}
	return b.String(), live
}

// TestReports runs every input mode in process over the same small run and
// checks each against its golden report: batch at -parallel 1 and 8, gmon
// and pprof dumps, -salvage over clean and damaged directories, -follow
// with its live: lines stripped, gprof.txt.N reports (-format gprof) and
// real-format gmon.out.N dumps with symbols.out.N sidecars, in batch,
// -salvage and -follow.
func TestReports(t *testing.T) {
	root := t.TempDir()
	gmonDir := filepath.Join(root, "gmon")
	st, err := incprof.NewDirStore(gmonDir, false)
	if err != nil {
		t.Fatal(err)
	}
	writeCorpus(t, st)
	pprofDir := filepath.Join(root, "pprof")
	pf, ok := profile.Lookup("pprof")
	if !ok {
		t.Fatal("pprof format not registered")
	}
	pst, err := incprof.NewFormatDirStore(pprofDir, pf)
	if err != nil {
		t.Fatal(err)
	}
	writeCorpus(t, pst)
	textDir := filepath.Join(root, "text")
	tst, err := incprof.NewDirStore(textDir, true)
	if err != nil {
		t.Fatal(err)
	}
	writeCorpus(t, tst)
	gmonoutDir := filepath.Join(root, "gmonout")
	gst, err := incprof.NewGmonOutStore(gmonoutDir)
	if err != nil {
		t.Fatal(err)
	}
	writeCorpus(t, gst)
	// A damaged copy of the gmon run: one dump garbage, one torn, one gone.
	damaged := filepath.Join(root, "damaged")
	dst, err := incprof.NewDirStore(damaged, false)
	if err != nil {
		t.Fatal(err)
	}
	writeCorpus(t, dst)
	if err := os.WriteFile(dst.PathFor(5), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dst.PathFor(11)); err != nil {
		t.Fatal(err)
	}
	torn, err := os.ReadFile(dst.PathFor(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst.PathFor(20), torn[:len(torn)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	report := func(args ...string) string {
		t.Helper()
		code, stdout, stderr := runCapture(args...)
		if code != 0 {
			t.Fatalf("phasedetect %s: exit %d: %s", strings.Join(args, " "), code, stderr)
		}
		return stdout
	}

	batch := report("-dir", gmonDir)
	golden(t, "report.golden", batch)
	for _, args := range [][]string{
		{"-dir", gmonDir, "-parallel", "1"},
		{"-dir", gmonDir, "-parallel", "8"},
		{"-dir", gmonDir, "-salvage"},
		{"-dir", pprofDir},
		{"-dir", pprofDir, "-format", "pprof", "-parallel", "1"},
	} {
		if got := report(args...); got != batch {
			t.Fatalf("phasedetect %s differs from the batch report:\n%s\n--- batch\n%s", strings.Join(args, " "), got, batch)
		}
	}
	for _, dir := range []string{gmonDir, pprofDir} {
		follow := report("-dir", dir, "-follow", "-follow-poll", "5ms", "-follow-idle", "150ms")
		got, live := stripLive(follow)
		if live == 0 {
			t.Fatalf("-follow over %s printed no live: lines", dir)
		}
		if got != batch {
			t.Fatalf("-follow over %s differs from the batch report:\n%s\n--- batch\n%s", dir, got, batch)
		}
	}

	salvage := report("-dir", damaged, "-salvage", "-parallel", "1")
	golden(t, "report_salvage.golden", salvage)
	if got := report("-dir", damaged, "-salvage", "-parallel", "8"); got != salvage {
		t.Fatalf("-salvage -parallel 8 differs from -parallel 1:\n%s\n--- want\n%s", got, salvage)
	}
	follow, _ := stripLive(report("-dir", damaged, "-salvage", "-follow", "-follow-poll", "5ms", "-follow-idle", "150ms"))
	if follow != salvage {
		t.Fatalf("-salvage -follow differs from the batch salvage report:\n%s\n--- want\n%s", follow, salvage)
	}

	// A text directory holds gmon.out.N too, and auto-detects as gmon: the
	// flat profiles are a rendering of those dumps.
	if got := report("-dir", textDir); got != batch {
		t.Fatalf("-dir %s (auto) differs from the batch report:\n%s\n--- batch\n%s", textDir, got, batch)
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"report_text.golden", []string{"-dir", textDir, "-format", "gprof"}},
		{"report_gmonout.golden", []string{"-dir", gmonoutDir}},
	} {
		want := report(tc.args...)
		golden(t, tc.golden, want)
		if got := report(append(tc.args, "-salvage")...); got != want {
			t.Fatalf("%s -salvage differs from %s:\n%s", strings.Join(tc.args, " "), tc.golden, got)
		}
		got, live := stripLive(report(append(tc.args, "-follow", "-follow-poll", "5ms", "-follow-idle", "150ms")...))
		if live == 0 || got != want {
			t.Fatalf("%s -follow (%d live: lines) differs from %s:\n%s", strings.Join(tc.args, " "), live, tc.golden, got)
		}
	}
}

// TestRunExitCodes pins the exit code and the diagnostic of every way a
// command line or its input can be refused.
func TestRunExitCodes(t *testing.T) {
	root := t.TempDir()
	dumps := filepath.Join(root, "dumps")
	st, err := incprof.NewDirStore(dumps, false)
	if err != nil {
		t.Fatal(err)
	}
	writeCorpus(t, st)
	empty := filepath.Join(root, "empty")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(root, "state")
	if err := os.Mkdir(state, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(state, "wal-0000000000000000.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(root, "corrupt")
	if err := os.Mkdir(corrupt, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corrupt, "gmon.out.0"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // the whole diagnostic, or a prefix when it ends in "…"
	}{
		{nil, 2, "phasedetect: -dir is required"},
		{[]string{"-dir", ""}, 2, "phasedetect: -dir is required"},
		{[]string{"-dir", dumps, "-kmax", "0"}, 2, "phasedetect: -kmax must be at least 1 (got 0)"},
		{[]string{"-dir", dumps, "-kmax", "-2"}, 2, "phasedetect: -kmax must be at least 1 (got -2)"},
		{[]string{"-dir", dumps, "-threshold", "0"}, 2, "phasedetect: -threshold must be in (0, 1] (got 0)"},
		{[]string{"-dir", dumps, "-threshold", "-1"}, 2, "phasedetect: -threshold must be in (0, 1] (got -1)"},
		{[]string{"-dir", dumps, "-threshold", "1.5"}, 2, "phasedetect: -threshold must be in (0, 1] (got 1.5)"},
		{[]string{"-dir", dumps, "-threshold", "NaN"}, 2, "phasedetect: -threshold must be in (0, 1] (got NaN)"},
		{[]string{"-dir", dumps, "-parallel", "-1"}, 2, "phasedetect: -parallel must not be negative (got -1)"},
		{[]string{"-dir", dumps, "-refresh", "-1"}, 2, "phasedetect: -refresh must not be negative (got -1)"},
		{[]string{"-dir", dumps, "-reorder", "-1"}, 2, "phasedetect: -reorder must not be negative (got -1)"},
		{[]string{"-dir", dumps, "-checkpoint-every", "-1"}, 2, "phasedetect: -checkpoint-every must not be negative (got -1)"},
		{[]string{"-dir", dumps, "-max-pending", "-1"}, 2, "phasedetect: -max-pending must not be negative (got -1)"},
		{[]string{"-dir", dumps, "-stall", "-1s"}, 2, "phasedetect: -stall must not be negative (got -1s)"},
		{[]string{"-dir", dumps, "-follow-poll", "0"}, 2, "phasedetect: -follow-poll must be positive (got 0s)"},
		{[]string{"-dir", dumps, "-follow-poll", "-5ms"}, 2, "phasedetect: -follow-poll must be positive (got -5ms)"},
		{[]string{"-dir", dumps, "-follow-idle", "0"}, 2, "phasedetect: -follow-idle must be positive (got 0s)"},
		{[]string{"-dir", dumps, "-nosuch"}, 2, "flag provided but not defined: -nosuch…"},
		{[]string{"-dir", dumps, "-kmax", "many"}, 2, `invalid value "many" for flag -kmax…`},
		{[]string{"-dir", dumps, "-text"}, 2, "flag provided but not defined: -text…"},
		{[]string{"-dir", dumps, "-format", "nope"}, 1, `phasedetect: unknown format "nope" (have auto, ` + strings.Join(profile.Names(), ", ") + ")"},
		{[]string{"-dir", dumps, "-reorder", "2"}, 1, "phasedetect: -reorder only applies with -follow"},
		{[]string{"-dir", dumps, "-checkpoint-dir", state}, 1, "phasedetect: -checkpoint-dir only applies with -follow"},
		{[]string{"-dir", dumps, "-resume"}, 1, "phasedetect: -resume only applies with -follow"},
		{[]string{"-dir", dumps, "-max-pending", "4"}, 1, "phasedetect: -max-pending only applies with -follow"},
		{[]string{"-dir", dumps, "-stall", "1s"}, 1, "phasedetect: -stall only applies with -follow"},
		{[]string{"-dir", dumps, "-resume", "-stall", "1s"}, 1, "phasedetect: -resume only applies with -follow"},
		{[]string{"-dir", dumps, "-stall", "1s", "-max-pending", "4", "-reorder", "1"}, 1, "phasedetect: -reorder only applies with -follow"},
		{[]string{"-dir", dumps, "-follow", "-shed", "nope"}, 1, `phasedetect: unknown shed policy "nope" (have block, drop-oldest)`},
		{[]string{"-dir", dumps, "-follow", "-shed", "drop-oldest"}, 1, "phasedetect: -shed drop-oldest requires -salvage: a shed dump surfaces as a gap only the robust differencer can repair"},
		{[]string{"-dir", dumps, "-follow", "-resume"}, 1, "phasedetect: -resume requires -checkpoint-dir"},
		{[]string{"-dir", dumps, "-gap", "nope"}, 1, `phasedetect: unknown gap policy "nope" (have split, drop, scale)`},
		{[]string{"-dir", dumps, "-selection", "nope"}, 1, `phasedetect: unknown selection "nope"`},
		{[]string{"-dir", dumps, "-algorithm", "nope"}, 1, `phasedetect: unknown algorithm "nope"`},
		{[]string{"-dir", dumps, "-follow", "-checkpoint-dir", state}, 1,
			"phasedetect: " + state + " already holds checkpoint state; pass -resume to continue that run or clear the directory"},
		{[]string{"-dir", empty}, 1, "phasedetect: profile: no recognizable profile dumps in " + empty + "…"},
		{[]string{"-dir", filepath.Join(root, "missing")}, 1, "phasedetect: …"},
		{[]string{"-dir", corrupt, "-format", "gmon"}, 1, `phasedetect: incprof: decoding gmon.out.0: profile: bad magic "garb"`},
		{[]string{"-dir", corrupt, "-format", "gmon", "-salvage"}, 1, "phasedetect: no snapshots found in " + corrupt},
		{[]string{"-dir", empty, "-format", "gprof"}, 1, "phasedetect: no snapshots found in " + empty},
		{[]string{"-h"}, 0, "Usage of phasedetect:…"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, _, stderr := runCapture(tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr)
			}
			if prefix, ok := strings.CutSuffix(tc.stderr, "…"); ok {
				if !strings.HasPrefix(stderr, prefix) {
					t.Fatalf("stderr %q, want it to start with %q", stderr, prefix)
				}
			} else if stderr != tc.stderr+"\n" {
				t.Fatalf("stderr %q, want %q", stderr, tc.stderr+"\n")
			}
		})
	}
}

// TestZeroValuesKeepTheirMeaning checks the 0 values that mean "off" or
// "default" stay valid.
func TestZeroValuesKeepTheirMeaning(t *testing.T) {
	for _, args := range [][]string{
		{"-dir", "d", "-parallel", "0", "-refresh", "0"},
		{"-dir", "d", "-follow", "-refresh", "0", "-reorder", "0", "-max-pending", "0", "-stall", "0", "-checkpoint-every", "0"},
		{"-dir", "d", "-kmax", "1", "-threshold", "1"},
	} {
		c, code := parseConfig(args, io.Discard)
		if c == nil || code != 0 {
			t.Fatalf("%v refused with exit %d", args, code)
		}
	}
}

// FuzzParseConfig feeds arbitrary argument lists to the command-line
// parser: it must not panic, must exit only 0, 1 or 2, and a config it
// accepts must validate again.
func FuzzParseConfig(f *testing.F) {
	for _, seed := range []string{
		"",
		"-dir\x00d",
		"-dir\x00d\x00-follow\x00-resume\x00-checkpoint-dir\x00s",
		"-dir\x00d\x00-threshold\x001.5",
		"-dir\x00d\x00-kmax\x000\x00-stall\x00-1s",
		"-dir=d\x00-follow\x00-shed\x00drop-oldest\x00-salvage\x00-max-pending\x003",
		"-dir\x00d\x00-format\x00gprof\x00-follow",
		"-h",
		"--dir\x00d\x00extra\x00args",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, joined string) {
		var args []string
		if joined != "" {
			args = strings.Split(joined, "\x00")
		}
		c, code := parseConfig(args, io.Discard)
		if code != 0 && code != 1 && code != 2 {
			t.Fatalf("%q: exit code %d", args, code)
		}
		if c == nil {
			return
		}
		if code != 0 {
			t.Fatalf("%q: accepted with exit code %d", args, code)
		}
		if code, err := c.validate(); code != 0 || err != nil {
			t.Fatalf("%q: accepted config fails revalidation: %d %v", args, code, err)
		}
	})
}
