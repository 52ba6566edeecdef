package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cliRun is what one phasedetect process did, observed from outside.
type cliRun struct {
	start  time.Time // when the benchmark learnt the process had started
	usage  usage     // as the launcher measured it
	stdout []byte
	// labels maps an interval to when its "live: interval i -> phase p"
	// line reached the benchmark.
	labels map[int]time.Time
}

func (r *cliRun) wall() time.Duration { return r.usage.Wall }

// usage is what the launcher measures of the process it runs.
type usage struct {
	Wall   time.Duration // start to exit
	CPU    time.Duration // user + system
	MaxRSS int64         // peak resident set, bytes
}

var labelLine = regexp.MustCompile(`^live: interval (\d+) -> phase `)

// launcherEnv, set in a copy of this program's environment, makes that copy
// a launcher: it runs the command its arguments name and reports the
// command's start and usage on file descriptor 3.
//
// phasedetect is started through a launcher, not by the benchmark itself,
// because Linux starts a child's peak resident set at its parent's peak.
// Started by the benchmark, which holds the corpus in memory, phasedetect's
// peak RSS would read as the benchmark's; started by a fresh launcher of a
// few MiB, it is phasedetect's own.
const launcherEnv = "INCPROF_BENCH_LAUNCHER"

// init turns the process into a launcher when the benchmark started it as
// one; it runs before main and before the tests' TestMain.
func init() {
	if os.Getenv(launcherEnv) == "1" {
		os.Exit(launch(os.Args[1:]))
	}
}

// launch runs args with the launcher's standard streams, writes "started"
// on file descriptor 3 once the process runs and its usage as JSON once it
// has exited, and exits as it did.
func launch(args []string) int {
	report := os.NewFile(3, "report")
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.Env = slices.DeleteFunc(os.Environ(), func(kv string) bool { return strings.HasPrefix(kv, launcherEnv+"=") })
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "bench launcher:", err)
		return 1
	}
	fmt.Fprintln(report, "started")
	_ = cmd.Wait() // an unsuccessful exit goes back as the launcher's own
	u := usage{Wall: time.Since(t0)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.MaxRSS = ru.Maxrss * 1024 // Linux reports KiB
	}
	if err := json.NewEncoder(report).Encode(u); err != nil {
		fmt.Fprintln(os.Stderr, "bench launcher:", err)
		return 1
	}
	return cmd.ProcessState.ExitCode()
}

// runCLI runs phasedetect to completion through a launcher, timestamping
// live label lines as they arrive. started, when non-nil, is called as soon
// as the process runs (the live replay begins its schedule there). A
// non-zero exit is an error carrying the process's standard error.
func runCLI(bin string, args []string, started func()) (*cliRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append([]string{bin}, args...)...)
	cmd.Env = append(os.Environ(), launcherEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	rp, wp, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer rp.Close()
	cmd.ExtraFiles = []*os.File{wp}
	err = cmd.Start()
	wp.Close()
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*cliRun, error) {
		cmd.Wait()
		return nil, fmt.Errorf("phasedetect %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	report := bufio.NewReader(rp)
	if line, err := report.ReadString('\n'); line != "started\n" {
		io.Copy(io.Discard, out)
		return fail(fmt.Errorf("did not start: %v", err))
	}
	r := &cliRun{start: time.Now(), labels: map[int]time.Time{}}
	if started != nil {
		started()
	}
	var buf bytes.Buffer
	br := bufio.NewReader(out)
	for {
		line, rerr := br.ReadBytes('\n')
		if m := labelLine.FindSubmatch(line); m != nil {
			i, _ := strconv.Atoi(string(m[1]))
			if _, dup := r.labels[i]; !dup {
				r.labels[i] = time.Now()
			}
		}
		buf.Write(line)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fail(rerr)
		}
	}
	r.stdout = buf.Bytes()
	if err := json.NewDecoder(report).Decode(&r.usage); err != nil {
		return fail(fmt.Errorf("reading its usage: %v", err))
	}
	if err := cmd.Wait(); err != nil {
		return r, fmt.Errorf("phasedetect %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return r, nil
}

// report returns the run's report with the live: lines removed, which a
// -follow run must make byte-identical to a batch run over the same dumps.
func (r *cliRun) report() []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(r.stdout, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("live:")) {
			out = append(out, line...)
		}
	}
	return out
}

var headerLine = regexp.MustCompile(`(?m)^(\d+) intervals, (\d+) feature dimensions, (\d+) phases`)

// header parses the report's "N intervals, D feature dimensions, K phases"
// line.
func header(report []byte) (n, dims, k int, err error) {
	m := headerLine.FindSubmatch(report)
	if m == nil {
		return 0, 0, 0, fmt.Errorf("report has no header line")
	}
	n, _ = strconv.Atoi(string(m[1]))
	dims, _ = strconv.Atoi(string(m[2]))
	k, _ = strconv.Atoi(string(m[3]))
	return n, dims, k, nil
}

// replay writes dumps into dir on an open-loop schedule of rate per second
// starting at t0, each atomically (temporary name, then rename) so the
// tailer never sees a partial file. It returns when the last dump is in
// place, with the moment each one landed.
func replay(dir string, names []string, dumps [][]byte, rate int, t0 time.Time) ([]time.Time, error) {
	landed := make([]time.Time, len(dumps))
	period := time.Second / time.Duration(rate)
	for i, b := range dumps {
		if d := time.Until(t0.Add(time.Duration(i) * period)); d > 0 {
			time.Sleep(d)
		}
		tmp := filepath.Join(dir, ".incoming")
		if err := os.WriteFile(tmp, b, 0o644); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, filepath.Join(dir, names[i])); err != nil {
			return nil, err
		}
		landed[i] = time.Now()
	}
	return landed, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
