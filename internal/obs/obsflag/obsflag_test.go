package obsflag

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/incprof/incprof/internal/obs"
)

// session parses args into a fresh flag set, runs one instrumented workload
// between Setup and Finish, and returns what went to stdout.
func session(t *testing.T, args ...string) []byte {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	r, err := f.Setup(7, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	root := obs.Start("work")
	for i := 0; i < 3; i++ {
		root.ChildKey("step", uint64(i)).SetInt("i", int64(i)).End()
		obs.C("work.steps").Inc()
	}
	root.End()
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Fatal("collection still on after Finish")
	}
	return stdout.Bytes()
}

func TestNoFlagsWritesNothing(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	r, err := f.Setup(7, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if r != nil || obs.Enabled() {
		t.Fatal("Setup started a session no flag asked for")
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if out := session(t); len(out) != 0 || stdout.Len() != 0 {
		t.Fatalf("stdout got %q", append(stdout.Bytes(), out...))
	}
}

func TestExportsAreByteIdenticalAcrossRuns(t *testing.T) {
	read := func(dir string) map[string][]byte {
		files := map[string][]byte{}
		for _, name := range []string{"trace.txt", "trace.json", "metrics.json"} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if len(b) == 0 {
				t.Fatalf("%s is empty", name)
			}
			files[name] = b
		}
		return files
	}
	var runs []map[string][]byte
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		out := session(t,
			"-trace", filepath.Join(dir, "trace.txt"),
			"-trace-json", filepath.Join(dir, "trace.json"),
			"-metrics", filepath.Join(dir, "metrics.json"))
		if len(out) != 0 {
			t.Fatalf("file exports wrote %q to stdout", out)
		}
		runs = append(runs, read(dir))
	}
	for name, b := range runs[0] {
		if !bytes.Equal(b, runs[1][name]) {
			t.Fatalf("%s differs between runs:\n%s\n---\n%s", name, b, runs[1][name])
		}
	}
	if !bytes.Contains(runs[0]["trace.txt"], []byte("step")) || !bytes.Contains(runs[0]["metrics.json"], []byte("work.steps")) {
		t.Fatalf("exports miss the workload:\n%s\n%s", runs[0]["trace.txt"], runs[0]["metrics.json"])
	}
}

func TestDashWritesToTheGivenStdout(t *testing.T) {
	out := session(t, "-trace", "-", "-metrics", "-")
	if !bytes.Contains(out, []byte("step")) || !bytes.Contains(out, []byte("work.steps")) {
		t.Fatalf("stdout lacks the trace and metrics:\n%s", out)
	}
}

func TestCPUProfileIsWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	session(t, "-cpuprofile", path)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("empty CPU profile")
	}
}
