package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// env is what every pass of a workload shares.
type env struct {
	phasedetect string        // the binary under test
	work        string        // scratch directory the pass owns
	seed        uint64        // corpus seed
	seconds     time.Duration // measuring time per pass
}

// outcome collects one pass's metrics, operation counts and problems.
type outcome struct {
	// speedFactor is what the untraced pass multiplied its times by to
	// scale them to the reference speed; liveSpeedFactor, the live run's.
	speedFactor, liveSpeedFactor float64
	metrics                      map[string]float64
	summaries                    map[string]summary
	attempted                    int
	failed                       int
	problems                     []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, summaries: map[string]summary{}}
}

// problem records a failed check; it fails the pass without counting an
// operation.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (o *outcome) op(err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		o.problem("%v", err)
		return false
	}
	return true
}

// set records a metric as stat of its samples, keeping their quartiles for
// the result file.
func (o *outcome) set(name string, samples []float64, stat func([]float64) float64) {
	o.summaries[name] = summarize(samples)
	o.metrics[name] = stat(samples)
}

// inputs is a workload's set-up: the dumps on disk and, for resume, the
// crash image.
type inputs struct {
	c     *corpus
	dir   string // every dump (live: the replay's source)
	image string // resume: checkpoint state of the image run
}

// setup generates the corpus and writes it to dir through the program's
// dump store, over the files an earlier set-up left there. For resume it
// also makes the crash image: phasedetect -follow with checkpoints over a
// directory of the first imageDumps dumps, exiting on idle, leaves a
// snapshot plus a WAL tail.
func setup(e env, w workload, dir string) (*inputs, error) {
	in := &inputs{c: generate(w.corpus, e.seed), dir: filepath.Join(dir, "dumps")}
	if w.mode == resume {
		imgDumps := filepath.Join(dir, "image-dumps")
		if err := in.c.write(imgDumps, 0, w.imageDumps()); err != nil {
			return nil, err
		}
		in.image = filepath.Join(dir, "image")
		if err := os.RemoveAll(in.image); err != nil {
			return nil, err
		}
		if _, err := runCLI(e.phasedetect, followArgs(w, imgDumps, in.image), nil); err != nil {
			return nil, fmt.Errorf("making the crash image: %w", err)
		}
	}
	return in, in.c.write(in.dir, 0, len(in.c.Dumps))
}

func batchArgs(w workload, dir string, serial bool) []string {
	args := []string{"-dir", dir, "-format", w.corpus.Format, "-selection", w.selection}
	if serial {
		args = append(args, "-parallel", "1")
	}
	return args
}

func followArgs(w workload, dir, state string) []string {
	args := append(batchArgs(w, dir, false), followFlags()...)
	return append(args, "-checkpoint-dir", state)
}

// setupFloor is how long the timed set-ups repeat at least, so a quick
// set-up is the median of more than three.
const setupFloor = 2 * time.Second

// endToEnd is the untraced pass: it times set-up, then the workload's
// phasedetect runs, and checks every report.
//
// A first, untimed set-up creates the files. The timed set-ups write over
// them, at least three times and for at least setupFloor, each after a sync
// so that no earlier write-back lands in it. On the disk the benchmark was
// first run on, creating a file took 0.6 ms of kernel time in some states of
// the file system and almost none in others, and the state flipped between
// runs, while writing over a file took a steady 0.05 ms. The measured
// command repeats for the pass's time. Every metric but the label lag is the
// median of its repetitions; the label lag's percentiles are taken over
// every label of the pass. Every time the program spends computing is scaled
// to the reference speed (see speed.go); the live run's by timings taken
// during it. The live median label lag is not scaled: the 10 ms poll, which
// does not speed up with the host, sets most of it, and scaling it made it
// spread more between runs, not less.
func endToEnd(e env, w workload) *outcome {
	o := newOutcome()
	m := runs{speed: newSpeed()}
	var setups []float64
	var in *inputs
	dir := filepath.Join(e.work, "setup")
	if _, err := setup(e, w, dir); err != nil {
		o.op(err)
		return o
	}
	start := time.Now()
	for len(setups) < 3 || time.Since(start) < setupFloor {
		syscall.Sync()
		m.speed.sample()
		t0 := time.Now()
		got, err := setup(e, w, dir)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			o.op(err)
			return o
		}
		in = got
	}
	switch w.mode {
	case batch:
		m.batchPairs(e, w, in, o, e.seconds, func(r *cliRun) {
			m.report = append(m.report, r.wall().Seconds())
			m.add(r)
		})
	case live:
		m.live(e, w, in, o)
		m.batchPairs(e, w, in, o, 3*time.Second, func(r *cliRun) { m.report = append(m.report, r.wall().Seconds()) })
	case resume:
		m.resume(e, w, in, o)
		m.batchPairs(e, w, in, o, 3*time.Second, nil)
	}
	for _, rep := range m.follow {
		if !bytes.Equal(rep, m.ref) {
			o.problem("a -follow report (live: lines stripped) differs from the batch report")
			break
		}
	}
	m.speed.sample()
	k := m.speed.factor()
	o.speedFactor = k
	o.set("setup_s", scaled(setups, k), median)
	o.set("report_s", scaled(m.report, k), median)
	o.set("report_serial_s", scaled(m.serial, k), median)
	o.set("peak_rss_mb", m.rss, median)
	switch w.mode {
	case batch:
		o.set("cpu_s", scaled(m.cpu, k), median)
		// Batch prints every interval's label with the report.
		ms := scaled(m.report, 1000*k)
		o.set("label_lag_p50_ms", ms, median)
		o.set("label_lag_p99_ms", ms, median)
	case live:
		o.liveSpeedFactor = m.liveK
		o.set("cpu_s", scaled(m.cpu, m.liveK), median)
		m.lagMetrics(o, 1, m.liveK)
	case resume:
		o.set("cpu_s", scaled(m.cpu, k), median)
		m.lagMetrics(o, k, k)
	}
	return o
}

// runs gathers one sample per phasedetect run of each end-to-end metric.
type runs struct {
	report, serial []float64 // seconds
	cpu, rss       []float64 // seconds, MiB
	lags           []float64 // ms: every -follow label's lag, pooled over runs
	ref            []byte    // the batch report every run must reproduce
	follow         [][]byte  // -follow reports, live: lines stripped
	speed          *speed    // timed before every phasedetect run
	liveK          float64   // speed factor timed during the live run
}

// add records one run's CPU time and peak memory.
func (m *runs) add(r *cliRun) {
	m.cpu = append(m.cpu, r.usage.CPU.Seconds())
	m.rss = append(m.rss, float64(r.usage.MaxRSS)/(1<<20))
}

// lagMetrics sets the median of the pooled -follow label lags times k50
// and their 99th percentile times k99. On live-follow a few dumps in a
// hundred land during a refresh or a snapshot and wait for it. The 90th and
// 95th percentiles sat at that edge and jumped between runs; the 99th sits
// among the waiting dumps and moves with the refresh time, which the host's
// speed sets. The live run's 1,000 labels and the resumes' 6 x 190 leave at
// least 10 lags beyond it.
func (m *runs) lagMetrics(o *outcome, k50, k99 float64) {
	p50, _ := percentile(m.lags, 50)
	p99, ok := percentile(m.lags, 99)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: label_lag_p99_ms rests on %d lags, fewer than 10 beyond it\n", len(m.lags))
	}
	o.summaries["label_lag_p50_ms"] = summarize(scaled(m.lags, k50))
	o.metrics["label_lag_p50_ms"] = p50 * k50
	o.metrics["label_lag_p99_ms"] = p99 * k99
}

// check compares a batch report with the first one seen and its header with
// the corpus.
func (m *runs) check(o *outcome, c *corpus, report []byte) {
	if m.ref == nil {
		m.ref = report
		n, dims, k, err := header(report)
		switch {
		case err != nil:
			o.problem("%v", err)
		case n != len(c.Dumps) || dims != c.Dims || k < 1:
			o.problem("report header says %d intervals, %d dimensions, %d phases; the corpus has %d dumps over %d functions",
				n, dims, k, len(c.Dumps), c.Dims)
		}
		return
	}
	if !bytes.Equal(report, m.ref) {
		o.problem("two batch reports over the same dumps differ")
	}
}

// batchPairs alternates default and -parallel 1 batch runs over the complete
// directory, at least two pairs and until d has passed, checking every
// report. Serial runs time report_serial_s; each default run goes to
// onDefault, and a nil onDefault skips the default runs.
func (m *runs) batchPairs(e env, w workload, in *inputs, o *outcome, d time.Duration, onDefault func(*cliRun)) {
	t0 := time.Now()
	for pair := 0; pair < 2 || time.Since(t0) < d; pair++ {
		for _, serial := range []bool{pair%2 == 1, pair%2 == 0} {
			if !serial && onDefault == nil {
				continue
			}
			m.speed.sample()
			r, err := runCLI(e.phasedetect, batchArgs(w, in.dir, serial), nil)
			if !o.op(err) {
				continue
			}
			m.check(o, in.c, r.stdout)
			if serial {
				m.serial = append(m.serial, r.wall().Seconds())
			} else {
				onDefault(r)
			}
		}
	}
}

// live replays the corpus into an empty directory at the workload's rate
// while phasedetect -follow tails it. Each interval's label lag runs from
// its dump's due time on the schedule, so a stall delays every later label.
func (m *runs) live(e env, w workload, in *inputs, o *outcome) {
	c := in.c
	dumps := make([][]byte, len(c.Dumps))
	names := make([]string, len(c.Dumps))
	for i := range dumps {
		names[i] = c.format().FileName(i)
		b, err := os.ReadFile(filepath.Join(in.dir, names[i]))
		if err != nil {
			o.op(err)
			return
		}
		dumps[i] = b
	}
	dir := filepath.Join(e.work, "live")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		o.op(err)
		return
	}
	m.speed.sample()
	var t0 time.Time
	var landed []time.Time
	var stopSpeed func() *speed
	done := make(chan error, 1)
	r, err := runCLI(e.phasedetect, followArgs(w, dir, filepath.Join(e.work, "live-state")), func() {
		t0 = time.Now()
		stopSpeed = sampleEvery(500 * time.Millisecond)
		go func() {
			var err error
			landed, err = replay(dir, names, dumps, w.rate, t0)
			done <- err
		}()
	})
	if t0.IsZero() {
		o.op(err)
		return
	}
	m.liveK = stopSpeed().factor()
	rerr := <-done
	if !o.op(rerr) || !o.op(err) {
		return
	}
	late := time.Duration(0)
	period := time.Second / time.Duration(w.rate)
	for i := range dumps {
		due := t0.Add(time.Duration(i) * period)
		late = max(late, landed[i].Sub(due))
		at, ok := r.labels[i]
		if o.op(labelErr(i, ok)) {
			m.lags = append(m.lags, float64(at.Sub(due))/1e6)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: live replay: writer at most %v behind schedule\n", late)
	m.add(r)
	m.follow = append(m.follow, r.report())
}

// resume copies the crash image afresh and runs phasedetect -follow -resume
// over the complete directory, at least six times and until the time is up.
// Every dump past the image is due at launch; report time is launch to exit
// less the idle window -follow waits before it reports.
func (m *runs) resume(e env, w workload, in *inputs, o *outcome) {
	img := w.imageDumps()
	want := fmt.Sprintf("live: resume: snapshot at %d accepted dumps, %d WAL records replayed\n",
		img/ckptEvery*ckptEvery, img%ckptEvery)
	t0 := time.Now()
	for i := 0; i < 6 || time.Since(t0) < e.seconds; i++ {
		state := filepath.Join(e.work, fmt.Sprintf("resume-%d", i))
		if err := copyDir(in.image, state); err != nil {
			o.op(err)
			return
		}
		m.speed.sample()
		r, err := runCLI(e.phasedetect, append(followArgs(w, in.dir, state), "-resume"), nil)
		os.RemoveAll(state)
		if !o.op(err) {
			continue
		}
		if !bytes.Contains(r.stdout, []byte(want)) {
			o.problem("resume did not start from the crash image: want %q", want)
		}
		for j := img; j < len(in.c.Dumps); j++ {
			at, ok := r.labels[j]
			if o.op(labelErr(j, ok)) {
				m.lags = append(m.lags, float64(at.Sub(r.start))/1e6)
			}
		}
		m.report = append(m.report, (r.wall() - followIdle).Seconds())
		m.add(r)
		m.follow = append(m.follow, r.report())
	}
}

func labelErr(i int, ok bool) error {
	if ok {
		return nil
	}
	return fmt.Errorf("interval %d never got a live label", i)
}
