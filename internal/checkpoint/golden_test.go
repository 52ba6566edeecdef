// On-disk compatibility: committed state directories pin what this build
// does with files earlier builds wrote. testdata/v1 was written by the
// version-1 snapshot writer (profiles inside the snapshot JSON) and can no
// longer be regenerated; testdata/v2 is the current format, regenerated with
// -update only when the format changes on purpose.
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
	var full struct {
		K      int
		WCSS   []float64
		Phases json.RawMessage
		Gaps   json.RawMessage
	}
	if err := json.Unmarshal(got, &full); err != nil {
		t.Fatal(err)
	}
	report, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	report = append(report, '\n')
	if *update {
		if err := os.WriteFile(reportPath, report, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report, want) {
		t.Fatalf("report from the committed v2 directory differs from %s:\n%s", reportPath, report)
	}
}
