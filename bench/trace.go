package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"github.com/incprof/incprof/internal/checkpoint"
	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/mpi"
	"github.com/incprof/incprof/internal/online"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/report"
	"github.com/incprof/incprof/internal/stream"
)

// span is one timed call into a layer's public entry point.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level call
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }
func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer keeps spans in memory; they are written out when the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span under the innermost open one and makes it the
// innermost.
func (t *tracer) open(name string) int {
	parent := 0
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name})
	t.stack = append(t.stack, id)
	return id
}

// section opens a span that parents every call until the returned function
// closes it.
func (t *tracer) section(name string) func() {
	id := t.open(name)
	t.spans[id-1].Start = time.Since(t.t0).Nanoseconds()
	return func() {
		t.stack = t.stack[:len(t.stack)-1]
		t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	}
}

// call times f as one span under the innermost open span. The allocation
// counters are read outside the timed interval, so reading them costs the
// span nothing.
func (t *tracer) call(name string, f func() error) (span, error) {
	id := t.open(name)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := f()
	end := time.Now()
	runtime.ReadMemStats(&m1)
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id-1]
	s.Start, s.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	s.Allocs, s.Bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return *s, err
}

func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// phaseOptions are the analysis options phasedetect derives from the
// workload's flags and its own defaults.
func phaseOptions(w workload) phase.Options {
	opts := phase.Options{KMax: 8, CoverageThreshold: 0.95, Cluster: cluster.Options{Seed: 1}}
	opts.Features.Exclude = mpi.IsMPIFunc
	if w.selection == "silhouette" {
		opts.Selection = phase.Silhouette
	}
	return opts
}

// traced is the in-process pass: it calls every layer's public entry point
// in the order phasedetect does, one span per call, and derives the
// per-layer metrics from the spans. The composed calls must reproduce
// phase.Detect and the CLI's report, or the numbers would describe another
// computation and the pass fails.
func traced(e env, w workload, tr *tracer) *outcome {
	o := newOutcome()
	if snaps, ref := tracedBatch(e, w, tr, o); ref != nil {
		liveDrive(e, w, tr, o, snaps, ref)
	}
	return o
}

// tracedBatch drives the batch layers over the workload's corpus and returns
// the loaded dumps and phase.Detect's result over them, nil if a layer or a
// check failed.
func tracedBatch(e env, w workload, tr *tracer, o *outcome) ([]*profile.Sample, *phase.Detection) {
	defer tr.section("batch")()
	c := generate(w.corpus, e.seed)
	f := c.format()
	opts := phaseOptions(w)
	n := len(c.Dumps)
	dir := filepath.Join(e.work, "dumps")
	call := func(name string, fn func() error) span {
		s, err := tr.call(name, fn)
		o.op(err)
		return s
	}
	perDump := func(spans []span, v func(span) float64) float64 {
		sum := 0.0
		for _, s := range spans {
			sum += v(s)
		}
		return sum / float64(len(spans))
	}

	// incprof: write, load and tail the dump directory. The timed writes go
	// over files an untimed first write created, as the end-to-end set-up's
	// do (see endToEnd).
	if !o.op(c.write(dir, 0, n)) {
		return nil, nil
	}
	st, err := incprof.NewFormatDirStore(dir, f)
	if !o.op(err) {
		return nil, nil
	}
	var puts []span
	for _, d := range c.Dumps {
		puts = append(puts, call("incprof.DirStore.Put", func() error { return st.Put(d) }))
	}
	o.metrics["incprof.put_us_per_dump"] = perDump(puts, span.us)
	// The dumps are on disk now; dropping the generated copies keeps the
	// heap, and so the garbage collector's work, near phasedetect's own.
	c.Dumps = nil
	var snaps []*profile.Sample
	load := call("incprof.DirStore.Snapshots", func() (err error) { snaps, err = st.Snapshots(); return err })
	if len(snaps) != n {
		o.problem("loaded %d of %d dumps", len(snaps), n)
		return nil, nil
	}
	o.metrics["incprof.load_ms"] = load.ms()
	sink := &lastEmit{}
	tail := call("incprof.TailDir", func() error {
		_, err := incprof.TailDir(dir, sink, incprof.TailOptions{Format: f, Poll: 10 * time.Millisecond, Idle: 50 * time.Millisecond})
		return err
	})
	if sink.n != n {
		o.problem("the tail emitted %d of %d dumps", sink.n, n)
		return nil, nil
	}
	o.metrics["incprof.tail_us_per_dump"] = float64(sink.at.Sub(tr.t0).Nanoseconds()-tail.Start) / 1e3 / float64(n)

	// profile: decode every dump from memory.
	var decodes []span
	size := 0
	for i := 0; i < n; i++ {
		b, err := os.ReadFile(filepath.Join(dir, f.FileName(i)))
		if err != nil {
			o.op(err)
			return nil, nil
		}
		size += len(b)
		decodes = append(decodes, call("profile.Format.Decode", func() error { _, err := f.Decode(bytes.NewReader(b)); return err }))
	}
	o.metrics["profile.decode_us_per_dump"] = perDump(decodes, span.us)
	o.metrics["profile.decode_allocs_per_dump"] = perDump(decodes, func(s span) float64 { return float64(s.Allocs) })
	o.metrics["profile.bytes_per_dump"] = float64(size) / float64(n)

	// interval: differencing and the feature matrix.
	var profiles []interval.Profile
	diff := call("interval.DifferenceP", func() (err error) { profiles, err = interval.DifferenceP(snaps, opts.Cluster.Parallelism); return err })
	var m interval.Matrix
	feat := call("interval.FeaturesCSR", func() error { m = interval.FeaturesCSR(profiles, opts.Features); return nil })
	if o.failed > 0 || m.Sparse == nil || m.NumRows() == 0 {
		o.problem("no feature matrix")
		return nil, nil
	}
	o.metrics["interval.difference_ms"] = diff.ms()
	o.metrics["interval.difference_allocs"] = float64(diff.Allocs)
	o.metrics["interval.features_ms"] = feat.ms()
	o.metrics["interval.features_allocs"] = float64(feat.Allocs)
	o.metrics["interval.dims"] = float64(m.Dims())
	o.metrics["interval.nnz_per_row"] = float64(m.Sparse.NNZ()) / float64(m.NumRows())

	// cluster: the k sweep at the default and at serial parallelism, then
	// k selection.
	var results, serial []*cluster.Result
	sweep := call("cluster.SweepCSR", func() (err error) { results, err = cluster.SweepCSR(m.Sparse, opts.KMax, opts.Cluster); return err })
	sopts := opts.Cluster
	sopts.Parallelism = 1
	sweepSerial := call("cluster.SweepCSR/serial", func() (err error) { serial, err = cluster.SweepCSR(m.Sparse, opts.KMax, sopts); return err })
	if o.failed > 0 {
		return nil, nil
	}
	if !reflect.DeepEqual(results, serial) {
		o.problem("the serial sweep differs from the parallel one")
	}
	iters := 0
	for _, r := range results {
		iters += r.Iterations
	}
	var best *cluster.Result
	sel := call("cluster.Select", func() error {
		if opts.Selection == phase.Silhouette {
			best = cluster.SelectSilhouetteCSR(m.Sparse, results, opts.Cluster.Parallelism)
		} else {
			best = cluster.SelectElbow(results)
		}
		return nil
	})
	o.metrics["cluster.sweep_ms"] = sweep.ms()
	o.metrics["cluster.sweep_serial_ms"] = sweepSerial.ms()
	o.metrics["cluster.sweep_allocs"] = float64(sweep.Allocs)
	o.metrics["cluster.lloyd_iters"] = float64(iters)
	o.metrics["cluster.density_pct"] = 100 * float64(m.Sparse.NNZ()) / float64(m.NumRows()*m.Dims())
	o.metrics["cluster.select_ms"] = sel.ms()
	o.metrics["cluster.select_bytes"] = float64(sel.Bytes)

	// phase: assembly and Algorithm 1.
	var phases []phase.Phase
	sites := call("phase.BuildPhases+SelectPhaseSites", func() error {
		phases = phase.BuildPhases(profiles, best.Assign, best.Centroids, best.K)
		for i := range phases {
			phase.SelectPhaseSites(&phases[i], profiles, m, opts.CoverageThreshold, n)
		}
		return nil
	})
	o.metrics["phase.sites_ms"] = sites.ms()
	o.metrics["phase.k"] = float64(best.K)
	o.metrics["phase.ari_vs_truth"] = cluster.AdjustedRandIndex(best.Assign, c.Truth)

	// report: the phase table and timeline.
	render := call("report.Render", func() error { return renderReport(io.Discard, phases, n) })
	o.metrics["report.render_ms"] = render.ms()

	// Decomposition fidelity: the composed calls must be phase.Detect, and
	// what they render must be what phasedetect prints.
	ref, err := phase.Detect(profiles, opts)
	if !o.op(err) {
		return nil, nil
	}
	if err := sameDetection(ref, best.K, phases); err != nil {
		o.problem("the composed layers differ from phase.Detect: %v", err)
	}
	var rendered bytes.Buffer
	if err := renderReport(&rendered, phases, n); !o.op(err) {
		return nil, nil
	}
	var walls []float64
	for i := 0; i < 3; i++ {
		r, err := runCLI(e.phasedetect, batchArgs(w, dir, false), nil)
		if !o.op(err) {
			return nil, nil
		}
		walls = append(walls, float64(r.wall())/1e6)
		gn, gd, gk, err := header(r.stdout)
		if err != nil || gn != n || gd != m.Dims() || gk != best.K {
			o.problem("phasedetect's header (%d intervals, %d dims, %d phases; %v) differs from the traced layers (%d, %d, %d)",
				gn, gd, gk, err, n, m.Dims(), best.K)
		}
		if !bytes.Contains(r.stdout, rendered.Bytes()) {
			o.problem("phasedetect's phase table differs from the traced layers'")
		}
	}
	layers := load.ms() + diff.ms() + feat.ms() + sweep.ms() + sel.ms() + sites.ms() + render.ms()
	o.metrics["batch.unaccounted_ms"] = median(walls) - layers
	return snaps, ref
}

// lastEmit is a tail sink that counts dumps and notes when the last arrived.
type lastEmit struct {
	n  int
	at time.Time
}

func (s *lastEmit) Emit(*profile.Sample) error {
	s.n++
	s.at = time.Now()
	return nil
}

// renderReport writes the phase table and timeline as phasedetect prints
// them.
func renderReport(w io.Writer, phases []phase.Phase, n int) error {
	tb := report.NewTable("Phases and instrumentation sites (Algorithm 1)",
		"Phase ID", "Intervals", "Span", "Site Function", "Phase %", "App %", "Inst. Type")
	for _, p := range phases {
		span := fmt.Sprintf("%d..%d", p.Intervals[0], p.Intervals[len(p.Intervals)-1])
		for i, s := range p.Sites {
			id, count, spanCell := "", "", ""
			if i == 0 {
				id = fmt.Sprint(p.ID)
				count = fmt.Sprintf("%d (%s)", len(p.Intervals), p.Duration(time.Second))
				spanCell = span
			}
			tb.AddRow(id, count, spanCell, s.Function,
				fmt.Sprintf("%.1f", s.PhasePct), fmt.Sprintf("%.1f", s.AppPct), s.Type.String())
		}
		if len(p.Sites) == 0 {
			tb.AddRow(fmt.Sprint(p.ID), fmt.Sprint(len(p.Intervals)), span, "(none)", "", "", "")
		}
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	for _, p := range phases {
		for _, i := range p.Intervals {
			assign[i] = p.ID
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return report.RenderPhaseTimeline(w, "Phase timeline:", assign, 100)
}

// sameDetection compares K, phase membership and the selected sites.
func sameDetection(ref *phase.Detection, k int, phases []phase.Phase) error {
	if ref.K != k || len(ref.Phases) != len(phases) {
		return fmt.Errorf("k %d with %d phases, want k %d with %d phases", k, len(phases), ref.K, len(ref.Phases))
	}
	for i := range phases {
		a, b := phases[i], ref.Phases[i]
		if !reflect.DeepEqual(a.Intervals, b.Intervals) || !reflect.DeepEqual(a.Sites, b.Sites) {
			return fmt.Errorf("phase %d differs", i)
		}
	}
	return nil
}

// liveDrive feeds the dumps through the checkpoint and stream layers in the
// order checkpoint.Runner.Emit uses — Manager.Append, then Engine.Emit,
// then Engine.State and Manager.Save every ckptEvery dumps — with fsync on
// and the same engine options phasedetect -follow sets. The resume workload
// stops at its crash image and resumes through checkpoint.Start as the CLI
// does; the others recover from the state their stream ends with. The final
// detection must equal the batch one over the same dumps.
func liveDrive(e env, w workload, tr *tracer, o *outcome, snaps []*profile.Sample, batchRef *phase.Detection) {
	defer tr.section("live")()
	opts := phaseOptions(w)
	// The stream is capped at the live workload's length, so a long batch
	// corpus prices the live path on the same scale and the pass stays
	// within its time.
	n := min(len(snaps), liveSpec.Dumps)
	crashAt := n
	if w.mode == resume {
		crashAt = w.imageDumps()
	}
	ref := batchRef
	if n < len(snaps) {
		profiles, err := interval.DifferenceP(snaps[:n], 0)
		if !o.op(err) {
			return
		}
		if ref, err = phase.Detect(profiles, opts); !o.op(err) {
			return
		}
	}

	refreshed := false
	eopts := stream.Options{
		Phase:        opts,
		RefreshEvery: refreshEvery,
		OnLabel:      func(online.Event) {},
		OnRefresh: func(r stream.Refresh) {
			if !r.Final {
				refreshed = true
			}
		},
	}
	cfg := checkpoint.Config{Seed: opts.Cluster.Seed, KMax: opts.KMax, CoverageThreshold: opts.CoverageThreshold,
		Selection: w.selection, Algorithm: "kmeans", FeatureKind: opts.Features.Kind.String(), ExcludeMPI: true,
		GapPolicy: interval.GapSplit.String(), RefreshEvery: eopts.RefreshEvery}
	state := filepath.Join(e.work, "state")
	mgr, err := checkpoint.Open(state, checkpoint.ManagerOptions{})
	if !o.op(err) {
		return
	}
	eng := stream.New(eopts)
	seqs := make([]int, n)
	for i := range seqs {
		seqs[i] = snaps[i].Seq
	}
	var steps, refreshes, appends, saves []float64
	feed := func(i int) bool {
		s := snaps[i]
		a, err := tr.call("checkpoint.Manager.Append", func() error { return mgr.Append(s) })
		if !o.op(err) {
			return false
		}
		appends = append(appends, a.us())
		refreshed = false
		em, err := tr.call("stream.Engine.Emit", func() error { return eng.Emit(s) })
		if !o.op(err) {
			return false
		}
		if refreshed {
			refreshes = append(refreshes, em.ms())
		} else {
			steps = append(steps, em.us())
		}
		if (i+1)%ckptEvery != 0 {
			return true
		}
		sv, err := tr.call("checkpoint.Manager.Save", func() error {
			st, err := eng.State()
			if err != nil {
				return err
			}
			snap := &checkpoint.Snapshot{Config: cfg, Accepted: i + 1, LastSeq: s.Seq, SeenSeqs: seqs[:i+1],
				Meta: checkpoint.Meta{Intervals: len(st.Profiles), Dims: eng.Dims()}, Engine: st}
			if det := eng.Last(); det != nil {
				snap.Meta.K = det.K
			}
			return mgr.Save(snap)
		})
		saves = append(saves, sv.ms())
		return o.op(err)
	}
	recoverState := func() (span, int) {
		mgr.Close()
		var runner *checkpoint.Runner
		mgr2, err := checkpoint.Open(state, checkpoint.ManagerOptions{})
		if !o.op(err) {
			return span{}, 0
		}
		s, err := tr.call("checkpoint.Start", func() (err error) {
			runner, _, err = checkpoint.Start(mgr2, checkpoint.RunnerOptions{Config: cfg, Engine: eopts, Every: ckptEvery})
			return err
		})
		if !o.op(err) {
			return s, 0
		}
		mgr, eng = mgr2, runner.Engine()
		return s, runner.Replayed()
	}

	for i := 0; i < crashAt; i++ {
		if !feed(i) {
			return
		}
	}
	var rec span
	var replayed int
	if crashAt < n {
		rec, replayed = recoverState()
		for i := crashAt; i < n; i++ {
			if !feed(i) {
				return
			}
		}
	}
	var res *stream.Result
	fin, err := tr.call("stream.Engine.Finish", func() (err error) { res, err = eng.Finish(); return err })
	if !o.op(err) {
		return
	}
	if err := sameDetection(ref, res.Detection.K, res.Detection.Phases); err != nil {
		o.problem("the live path's final detection differs from the batch one: %v", err)
	}
	if crashAt == n {
		rec, replayed = recoverState()
	}
	mgr.Close()
	fsck, err := checkpoint.Fsck(state)
	if !o.op(err) {
		return
	}
	var biggest int64
	for _, s := range fsck.Snaps {
		biggest = max(biggest, s.Bytes)
	}

	stepP50, _ := percentile(steps, 50)
	stepP99, _ := percentile(steps, 99)
	appendP50, _ := percentile(appends, 50)
	appendP99, _ := percentile(appends, 99)
	o.metrics["stream.step_us_p50"] = stepP50
	o.metrics["stream.step_us_p99"] = stepP99
	o.metrics["stream.refresh_ms_p50"] = median(refreshes)
	o.metrics["stream.refresh_ms_max"] = maximum(refreshes)
	o.metrics["stream.refreshes"] = float64(len(refreshes))
	o.metrics["stream.finish_ms"] = fin.ms()
	o.metrics["checkpoint.append_us_p50"] = appendP50
	o.metrics["checkpoint.append_us_p99"] = appendP99
	o.metrics["checkpoint.save_ms_p50"] = median(saves)
	o.metrics["checkpoint.save_ms_max"] = maximum(saves)
	o.metrics["checkpoint.save_bytes_max"] = float64(biggest)
	o.metrics["checkpoint.recover_ms"] = rec.ms()
	o.metrics["checkpoint.replayed"] = float64(replayed)
}
