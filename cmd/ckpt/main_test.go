// Exit-code contract for the ckpt command: 0 when the state recovery would
// use is fully intact, 1 when recovery would fall back or truncate, 2 for
// usage errors. Fixtures are real checkpoint directories damaged with the
// fault-injection helpers, the same way the crash suite does.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/checkpoint"
	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/faults"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/mpi"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

// buildState feeds 12 synthetic cumulative dumps through a durable runner
// with snapshot cadence 5, leaving snapshots at generations 5 and 10 plus
// their WAL chain — the same mid-run shape the fsck tests pin.
func buildState(t *testing.T, dir string) {
	t.Helper()
	cfg := checkpoint.Config{Seed: 7, KMax: 8, RefreshEvery: 7}
	mgr, err := checkpoint.Open(dir, checkpoint.ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	runner, _, err := checkpoint.Start(mgr, checkpoint.RunnerOptions{
		Config: cfg,
		Engine: stream.Options{
			Phase: phase.Options{
				Features: interval.FeatureOptions{Exclude: mpi.IsMPIFunc},
				Cluster:  cluster.Options{Seed: 7, Parallelism: 1},
			},
			RefreshEvery: 7,
		},
		Every: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	period := 10 * time.Millisecond
	cum := make([]int64, 8)
	for i := 0; i < 12; i++ {
		s := &profile.Sample{
			Seq:          i,
			Timestamp:    time.Duration(i+1) * time.Second,
			SamplePeriod: period,
			Funcs:        make([]profile.FuncRecord, len(cum)),
		}
		for j := range cum {
			cum[j] += int64((i*7+j*3)%11) + 1
			s.Funcs[j] = profile.FuncRecord{
				Name:     fmt.Sprintf("fn_%02d", j),
				Samples:  cum[j],
				SelfTime: time.Duration(cum[j]) * period,
				Calls:    int64(i + 1),
			}
		}
		if err := runner.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
}

func runCkpt(t *testing.T, dir string, asJSON bool) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(dir, asJSON, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitZeroOnHealthyDir(t *testing.T) {
	dir := t.TempDir()
	buildState(t, dir)
	code, out, errOut := runCkpt(t, dir, false)
	if code != 0 {
		t.Fatalf("healthy dir exited %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, want := range []string{"status: healthy", "resume from generation 10", "Snapshots", "WALs",
		"Segments", "profiles.seg"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestExitOneOnDegradedDir(t *testing.T) {
	cases := map[string]func(t *testing.T, dir string){
		"torn newest snapshot": func(t *testing.T, dir string) {
			if err := faults.TearFile(filepath.Join(dir, fmt.Sprintf("ckpt-%016d.snap", 10)), 1); err != nil {
				t.Fatal(err)
			}
		},
		"torn segment": func(t *testing.T, dir string) {
			if err := faults.CorruptTail(filepath.Join(dir, "profiles.seg"), 1, 8); err != nil {
				t.Fatal(err)
			}
		},
		"corrupt newest WAL": func(t *testing.T, dir string) {
			if err := faults.CorruptTail(filepath.Join(dir, fmt.Sprintf("wal-%016d.log", 10)), 1, 16); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			buildState(t, dir)
			damage(t, dir)
			code, out, errOut := runCkpt(t, dir, false)
			if code != 1 {
				t.Fatalf("degraded dir exited %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
			}
			if !strings.Contains(out, "DEGRADED") {
				t.Errorf("report does not flag degradation:\n%s", out)
			}
		})
	}
}

// A directory written by the version-1 snapshot format: resume refuses it,
// so ckpt must say so and exit 1 without touching it.
func TestExitOneOnRefusedDir(t *testing.T) {
	code, out, errOut := runCkpt(t, filepath.Join("..", "..", "internal", "checkpoint", "testdata", "v1"), false)
	if code != 1 {
		t.Fatalf("version-1 dir exited %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, want := range []string{"status: REFUSED", "unsupported version 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestExitZeroOnEmptyDirFreshStart(t *testing.T) {
	code, out, _ := runCkpt(t, t.TempDir(), false)
	if code != 0 {
		t.Fatalf("empty dir exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "fresh start") {
		t.Errorf("empty dir report missing fresh-start line:\n%s", out)
	}
}

func TestExitTwoOnUsageError(t *testing.T) {
	code, _, errOut := runCkpt(t, "", false)
	if code != 2 {
		t.Fatalf("missing -dir exited %d", code)
	}
	if !strings.Contains(errOut, "-dir is required") {
		t.Errorf("stderr does not explain the usage error: %s", errOut)
	}
}

func TestJSONReportParses(t *testing.T) {
	dir := t.TempDir()
	buildState(t, dir)
	code, out, errOut := runCkpt(t, dir, true)
	if code != 0 {
		t.Fatalf("json mode exited %d: %s", code, errOut)
	}
	var rep checkpoint.FsckReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, out)
	}
	if !rep.Healthy || rep.RecoverGeneration != 10 || len(rep.Snaps) != 2 {
		t.Fatalf("json report = %+v", rep)
	}
}
