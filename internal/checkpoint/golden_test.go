// On-disk compatibility: committed state directories pin what this build
// does with files earlier builds wrote. testdata/v1 was written by the
// version-1 snapshot writer (profiles inside the snapshot JSON) and can no
// longer be regenerated; testdata/v2 is the current format, regenerated with
// -update only when the format changes on purpose. testdata/v2-live is the
// current format as written by an engine whose state still carried a
// mini-batch model and a site-selection cache; it cannot be regenerated
// either.
package checkpoint_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/incprof/incprof/internal/checkpoint"
	"github.com/incprof/incprof/internal/online"
)

var update = flag.Bool("update", false, "rewrite testdata/v2 and its expected report")

// The golden directories hold the minife fixture killed after 8 accepted
// dumps with a snapshot every 3: generations 3 and 6 plus their WALs.
const (
	goldenEvery = 3
	goldenCrash = 8
)

// copyState copies a committed state directory to a fresh temp directory,
// so recovery's own writes never reach testdata.
func copyState(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for name, data := range dirFiles(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestVersionGapRefusedAndLeftOnDisk: a state directory of another snapshot
// format version is refused by name and version — by resume and by fsck —
// and not one byte of it changes. Falling back past the snapshots as if
// they were torn would discard the run's state.
func TestVersionGapRefusedAndLeftOnDisk(t *testing.T) {
	dir := copyState(t, filepath.Join("testdata", "v1"))
	before := dirFiles(t, dir)

	mgr, err := checkpoint.Open(dir, checkpoint.ManagerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = checkpoint.Start(mgr, checkpoint.RunnerOptions{Config: testConfig(false), Engine: engOpts(false, 1), Every: goldenEvery})
	if err == nil {
		t.Fatal("resumed a version-1 state directory")
	}
	for _, want := range []string{"ckpt-0000000000000006.snap", "version 1", "version 2", "refusing"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not mention %q", err, want)
		}
	}
	mgr.Close()

	rep, err := checkpoint.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy || rep.Refusal == "" {
		t.Errorf("fsck calls a version-1 directory healthy=%v, refusal %q", rep.Healthy, rep.Refusal)
	}
	if !reflect.DeepEqual(dirFiles(t, dir), before) {
		t.Fatal("a refused version-1 directory was changed on disk")
	}
}

// TestGoldenV2RecoversByteIdentically resumes the committed version-2
// directory, feeds the rest of the fixture, and demands the committed
// report — which is also the uninterrupted run's.
func TestGoldenV2RecoversByteIdentically(t *testing.T) {
	snaps := collect(t, "minife")
	opts := engOpts(false, 1)
	src := filepath.Join("testdata", "v2")
	reportPath := filepath.Join("testdata", "v2.report.json")
	if *update {
		if err := os.RemoveAll(src); err != nil {
			t.Fatal(err)
		}
		runToCrash(t, src, false, opts, goldenEvery, snaps, goldenCrash)
	}
	dir := copyState(t, src)
	got := resumeAndFinish(t, dir, false, opts, goldenEvery, snaps)
	if !bytes.Equal(got, golden(t, snaps, opts)) {
		t.Fatal("resuming the committed v2 directory diverged from the uninterrupted run")
	}
	report := reportOf(t, got)
	if *update {
		if err := os.WriteFile(reportPath, report, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkReport(t, report, reportPath)
}

// TestGoldenV2LiveResumesFromOlderEngineState resumes testdata/v2-live: the
// minife fixture with live labels, a refresh every 5 intervals and a
// snapshot every 10, killed after 35 accepted dumps by a build whose
// snapshots also held the engine's mini-batch model (MiniBatch) and its
// Algorithm 1 cache (Sites). This build ignores those fields; only
// intermediate refreshes ever read them, so the resumed report must still
// be the uninterrupted run's and the committed one, byte for byte.
func TestGoldenV2LiveResumesFromOlderEngineState(t *testing.T) {
	snaps := collect(t, "minife")
	opts := engOpts(false, 1)
	opts.RefreshEvery = 5
	opts.OnLabel = func(online.Event) {}
	dir := copyState(t, filepath.Join("testdata", "v2-live"))
	rep, err := checkpoint.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy || rep.RecoverGeneration != 30 || rep.RecoverRecords != 5 {
		t.Fatalf("fsck: healthy=%v generation %d with %d records, want generation 30 with 5", rep.Healthy, rep.RecoverGeneration, rep.RecoverRecords)
	}
	got := resumeAndFinish(t, dir, false, opts, 10, snaps)
	if !bytes.Equal(got, golden(t, snaps, opts)) {
		t.Fatal("resuming the committed v2-live directory diverged from the uninterrupted run")
	}
	checkReport(t, reportOf(t, got), filepath.Join("testdata", "v2-live.report.json"))
}

// reportOf reduces a flattened detection to the committed report form: k,
// the WCSS curve, the phases and the gaps, indented.
func reportOf(t *testing.T, flat []byte) []byte {
	t.Helper()
	var full struct {
		K      int
		WCSS   []float64
		Phases json.RawMessage
		Gaps   json.RawMessage
	}
	if err := json.Unmarshal(flat, &full); err != nil {
		t.Fatal(err)
	}
	report, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(report, '\n')
}

// checkReport demands that report equal the committed file at path.
func checkReport(t *testing.T, report []byte, path string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report, want) {
		t.Fatalf("report from the committed state directory differs from %s:\n%s", path, report)
	}
}
