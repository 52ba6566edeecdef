// read.go is the one reader of a dump directory. It feeds each decoded dump
// to a Sink in sequence order, a chunk's run of decoded dumps as one batch
// when the sink is a BatchSink, which also learns where each pass over the
// directory ends. A batch read (ReadDir) is one pass over a
// finished directory; a tail (TailDir, behind phasedetect -follow) repeats
// the same pass while a collector is still writing, then ends with one batch
// pass once the stream goes idle. Both decode through the same code, so a
// tailed run sees byte-identical snapshots to a later read of the finished
// directory. On Linux a tail learns new dump names from an inotify watch
// (watch_linux.go) and lists the directory only to seed, verify and finish.
package incprof

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/par"
	"github.com/incprof/incprof/internal/profile"
)

// TailOptions configures ReadDir and TailDir.
type TailOptions struct {
	// Format selects the frontend whose dumps are read; nil reads
	// gmon.out.N (the "gmon" format).
	Format *profile.Format
	// Poll is the longest wait between directory checks; on Linux the
	// tail also wakes when a dump lands. Default 200ms. TailDir only.
	Poll time.Duration
	// Idle ends the tail: once no new dump has been emitted for this
	// long, the run is assumed finished. Default 2s. TailDir only.
	Idle time.Duration
	// Salvage skips permanently-undecodable dumps (reported via OnSkip and
	// in TailResult.Skipped) instead of failing the read.
	Salvage bool
	// OnSkip, if set, is called for each dump skipped in salvage mode.
	OnSkip func(SkippedFile)
	// Seen, if set, marks dumps the pipeline has already disposed of — a
	// resumed run's accepted and shed Seqs. The reader treats them as done
	// and never re-emits them.
	Seen func(seq int) bool
	// Stop, if set, ends the tail early when it becomes readable or
	// closed: TailDir returns what it has emitted so far with no error
	// and no terminal salvage sweep, because the run is not over — the
	// remaining dumps belong to a later resume. It is honoured at batch
	// boundaries: a batch the sink has begun is delivered whole, so a
	// BatchSink may take up to one read chunk (64 dumps) after Stop
	// fires, a sink that takes one dump at a time none. TailDir only.
	Stop <-chan struct{}
	// Parallelism bounds the decode pool: 0 means GOMAXPROCS, 1 decodes
	// each dump inline on the calling goroutine. The emitted snapshots,
	// skips and errors do not depend on it.
	Parallelism int
}

// TailResult summarizes a finished read or tail.
type TailResult struct {
	// Emitted counts the snapshots delivered to the sink.
	Emitted int
	// Skipped lists the undecodable dumps (salvage mode only), in Seq
	// order.
	Skipped []SkippedFile
	// Last is the final snapshot emitted, nil if none.
	Last *profile.Sample
	// Stopped reports the tail ended because opts.Stop fired, not because
	// the stream went idle.
	Stopped bool
}

// SkippedFile records one dump a salvage read could not use.
type SkippedFile struct {
	// Name is the file's base name (gmon.out.N).
	Name string
	// Seq is the sequence number parsed from the name.
	Seq int
	// Err is the open or decode failure.
	Err error
}

// readChunk is how many dumps one decode pass of the pool covers. A chunk
// gives every worker several dumps, so one slow file does not idle the
// pool, and it is long enough that emitting it (differencing into the
// engine) overlaps a whole decode of the next. It bounds memory too: at
// most two chunks of decoded snapshots are alive at once, however long the
// run. And it bounds a batch: a BatchSink gets at most one chunk per call,
// which is what lets a catch-up over a backlog pay one WAL fsync per chunk
// instead of per dump (and one live refresh per pass, at EndPass).
const readChunk = 64

// ReadDir reads a finished dump directory once, emitting each dump of the
// configured format to sink in Seq order. Every dump must decode: a strict
// read fails on the lowest-Seq one that does not, a salvage read skips and
// reports each. The sink's Flush is not called.
func ReadDir(dir string, sink Sink, opts TailOptions) (TailResult, error) {
	r := newReader(dir, sink, opts)
	_, err := r.pass(true)
	return r.res, err
}

// TailDir follows dir for dumps of the configured format (gmon.out.N by
// default) and emits each decoded snapshot to sink in sequence order as it
// appears, returning once no new dump has arrived for opts.Idle of wall
// time, however long each directory scan takes. On Linux it watches the
// directory (inotify) and wakes when a dump is renamed in or its write
// closes; it lists the directory only for the first pass, after lost
// events, every opts.Idle/2 to verify the watch, and for the final pass. A
// watch that is lost, or that misses a dump a listing finds, gives way to a
// listing on every poll, which is how the tail runs off Linux and wherever
// the watch cannot be made. The last quarter of an idle window lists every
// poll too, and a dump found then starts a new watch. A file that fails to
// decode is assumed to be mid-write and blocks emission (order is
// preserved, never skipped around) until the idle window expires; then the
// directory is read once more as a finished one (ReadDir), which skips
// (salvage) or fails on whatever still does not decode. The sink's Flush is
// NOT called — the caller owns stream termination.
func TailDir(dir string, sink Sink, opts TailOptions) (TailResult, error) {
	if opts.Poll <= 0 {
		opts.Poll = 200 * time.Millisecond
	}
	if opts.Idle <= 0 {
		opts.Idle = 2 * time.Second
	}
	r := newReader(dir, sink, opts)
	r.watch()
	defer r.unwatch()
	rested := false    // the watch was dropped late in an idle window
	last := time.Now() // the last emit, or the start
	for {
		if r.stopped() {
			return r.res, nil
		}
		progress, err := r.pass(false)
		if err != nil || r.res.Stopped {
			return r.res, err
		}
		if idle := time.Since(last); progress {
			last = time.Now()
			if rested {
				r.watch()
				rested = false
			}
		} else if idle >= opts.Idle {
			break
		} else if r.w != nil && idle >= opts.Idle-opts.Idle/4 {
			// Tearing a watch down waits out a kernel grace period of tens
			// of milliseconds, and a process cannot exit before it ends.
			// Dropping the watch for the last quarter of the window, which
			// lists every poll instead, keeps that wait off the run's end.
			r.unwatch()
			rested = true
		}
		if r.wait() {
			return r.res, nil
		}
	}
	// The run is over; whatever still fails to decode is corrupt, not
	// mid-write.
	_, err := r.pass(true)
	return r.res, err
}

// wait blocks until the next pass is due: Poll has passed, or the watch
// reports that a dump landed or that events were lost. It reports whether
// Stop fired instead.
func (r *reader) wait() (stopped bool) {
	var wake <-chan struct{}
	if r.w != nil {
		wake = r.w.src.wake()
	}
	t := time.NewTimer(r.opts.Poll)
	defer t.Stop()
	select {
	case <-r.opts.Stop:
		r.res.Stopped = true
		return true
	case <-wake:
	case <-t.C:
	}
	return false
}

// reader is the state one read or tail carries across its passes.
type reader struct {
	dir  string
	sink Sink
	opts TailOptions
	f    *profile.Format
	syms symbols
	done map[int]bool // Seqs emitted, or seen by the pipeline
	res  TailResult
	w    *watched // a tail's watch of the directory; nil lists every pass
}

func newReader(dir string, sink Sink, opts TailOptions) *reader {
	return &reader{
		dir: dir, sink: sink, opts: opts,
		f:    formatOr(opts.Format),
		syms: symbols{names: map[string]string{}},
		done: make(map[int]bool),
	}
}

// stopped reports (and records) that opts.Stop has fired.
func (r *reader) stopped() bool {
	if r.opts.Stop == nil {
		return false
	}
	select {
	case <-r.opts.Stop:
		r.res.Stopped = true
		return true
	default:
		return false
	}
}

// skip reports a Seq the pass leaves out: already emitted, or already
// disposed of by the pipeline.
func (r *reader) skip(seq int) bool {
	if r.done[seq] {
		return true
	}
	if r.opts.Seen != nil && r.opts.Seen(seq) {
		r.done[seq] = true
		return true
	}
	return false
}

// chunk is one decoded run of consecutive listed dumps, each in its own
// slot.
type chunk struct {
	files []dumpFile
	snaps []*profile.Sample
	errs  []error
}

// decoded reports whether every dump of the chunk decoded.
func (c chunk) decoded() bool {
	for _, err := range c.errs {
		if err != nil {
			return false
		}
	}
	return true
}

// decode decodes files on the pool into one chunk, interning each dump's
// names into the read's symbol table as its decode finishes.
func (r *reader) decode(files []dumpFile) chunk {
	c := chunk{files: files, snaps: make([]*profile.Sample, len(files)), errs: make([]error, len(files))}
	par.For(len(files), r.opts.Parallelism, func(i int) {
		c.snaps[i], c.errs[i] = r.decodeDump(files[i])
		if c.errs[i] == nil {
			r.syms.intern(c.snaps[i])
		}
	})
	return c
}

// pass lists the directory once and emits every dump not yet done, in Seq
// order, through emitAll; a pass that emitted anything and did not fail
// ends with the BatchSink's EndPass. progress reports whether anything was
// emitted.
func (r *reader) pass(final bool) (progress bool, err error) {
	before := r.res.Emitted
	err = r.emitAll(final)
	progress = r.res.Emitted > before
	if bs, ok := r.sink.(BatchSink); ok && progress && err == nil {
		err = bs.EndPass()
	}
	return progress, err
}

// emitAll is one pass's emission, decoding chunk by chunk.
// Above parallelism 1 the next chunk decodes on the pool while this one is
// emitted, unless this one holds a dump that ends the pass; at 1
// everything runs inline. Each chunk's runs
// of consecutive decoded dumps go to the sink through emit. The first dump
// that fails to decode ends a pass that is not final with nothing after it
// emitted, because it may still be being written. A final pass treats the
// directory as finished: it skips the dump (salvage) or fails on it.
func (r *reader) emitAll(final bool) error {
	files, err := r.files(final)
	if err != nil {
		return err
	}
	overlap := par.Parallelism(r.opts.Parallelism) > 1
	var next chan chunk // the chunk decoding ahead, if any
	defer func() {
		if next != nil {
			<-next // leave no decode running past the pass
		}
	}()
	for lo := 0; lo < len(files); lo += readChunk {
		var c chunk
		if next != nil {
			c, next = <-next, nil
		} else {
			c = r.decode(files[lo:min(lo+readChunk, len(files))])
		}
		// Decode ahead only while the pass will get past this chunk: a dump
		// that fails to decode ends every pass but a final salvage one,
		// and a decode started beyond it would be work (and a pool call)
		// the serial read never does.
		if hi := lo + readChunk; overlap && hi < len(files) && (final && r.opts.Salvage || c.decoded()) {
			next = make(chan chunk, 1)
			go func(ch chan<- chunk, files []dumpFile) { ch <- r.decode(files) }(next, files[hi:min(hi+readChunk, len(files))])
		}
		for i := 0; i < len(c.files); i++ {
			j := i
			for j < len(c.files) && c.errs[j] == nil {
				j++
			}
			if stopped, err := r.emit(c, i, j, final); stopped || err != nil {
				return err
			}
			if j == len(c.files) {
				break
			}
			f := c.files[j]
			if !final {
				return nil
			}
			if !r.opts.Salvage {
				return fmt.Errorf("incprof: decoding %s: %w", f.name, c.errs[j])
			}
			sk := SkippedFile{Name: f.name, Seq: f.seq, Err: c.errs[j]}
			r.res.Skipped = append(r.res.Skipped, sk)
			obs.C("incprof.read.skipped").Inc()
			if r.opts.OnSkip != nil {
				r.opts.OnSkip(sk)
			}
			i = j
		}
	}
	return nil
}

// emit hands the run c.snaps[lo:hi] of decoded dumps to the sink: a
// BatchSink takes it in one EmitBatch, any other sink one Emit at a time.
// Stop is honoured at batch boundaries — before the run, and before each
// Emit of a sink that takes one dump at a time — in a pass that is not
// final; stopped reports that it fired. The chunk keeps no reference to an
// emitted dump: the sink owns it.
func (r *reader) emit(c chunk, lo, hi int, final bool) (stopped bool, err error) {
	bs, batched := r.sink.(BatchSink)
	for lo < hi {
		if !final && r.stopped() {
			return true, nil
		}
		n := 1
		if batched {
			n = hi - lo
		}
		run := c.snaps[lo : lo+n]
		last := run[n-1]
		if batched {
			err = bs.EmitBatch(run)
		} else {
			err = r.sink.Emit(last)
		}
		clear(run)
		if err != nil {
			return false, err
		}
		for _, f := range c.files[lo : lo+n] {
			r.done[f.seq] = true
		}
		r.res.Emitted += n
		r.res.Last = last
		obs.C("incprof.read.emitted").Add(int64(n))
		lo += n
	}
	return false, nil
}

// dumpFile is one <prefix>N directory entry.
type dumpFile struct {
	seq  int
	name string
}

// listDumps returns the dumps of format f under dir in Seq order, leaving
// out the Seqs skip reports (nil skips none). Entries are read unsorted: the
// Seq sort is the only order that matters, so the name sort os.ReadDir does
// would be wasted work on every poll of a long tail.
func listDumps(dir string, f *profile.Format, skip func(seq int) bool) ([]dumpFile, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	entries, err := d.ReadDir(-1)
	d.Close()
	if err != nil {
		return nil, err
	}
	var files []dumpFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := f.SeqFromName(e.Name()); ok && (skip == nil || !skip(seq)) {
			files = append(files, dumpFile{seq, e.Name()})
		}
	}
	sortBySeq(files)
	return files, nil
}

func sortBySeq(files []dumpFile) {
	slices.SortFunc(files, func(a, b dumpFile) int { return cmp.Compare(a.seq, b.seq) })
}

// list lists the directory: the dumps not yet done, in Seq order.
func (r *reader) list() ([]dumpFile, error) {
	obs.CV("incprof.read.listings").Inc()
	return listDumps(r.dir, r.f, r.skip)
}

// dirEvent is one change a watch reports in the dump directory.
type dirEvent struct {
	op   uint8
	seq  int    // the dump's Seq (evAdded, evRemoved)
	name string // its file name (evAdded, evRemoved)
}

// dirEvent ops.
const (
	evAdded    uint8 = 1 << iota // a dump's name entered the directory
	evRemoved                    // a dump's name left it
	evWake                       // a dump was renamed in or written: read it now
	evOverflow                   // the kernel dropped events: list again
	evLost                       // the watch is gone
)

// dirEvents is a change feed for a dump directory; openWatch makes one.
type dirEvents interface {
	// drain appends every event queued before the call, oldest first.
	drain(dst []dirEvent) []dirEvent
	// wake is ready once an evWake, evOverflow or evLost event has been
	// queued since the last drain.
	wake() <-chan struct{}
	// close releases the feed; drain is not called after it.
	close()
}

// watched is a tail's picture of the dump directory between listings: the
// dumps in it not yet done, kept up to date from a dirEvents feed.
type watched struct {
	src   dirEvents
	names map[int]string // Seq → file name
	// unreported holds the Seqs the last verification listed before any
	// event named them. One still unnamed at the next verification means
	// the feed misses what lands (a network file system).
	unreported map[int]bool
	listed     time.Time  // the last listing
	relist     bool       // the picture needs a listing: the first pass, or events were lost
	evs        []dirEvent // drain scratch
}

// files returns the dumps not yet done, in Seq order. A read, a final pass
// and a tail without a watch list the directory. A watched tail takes them
// from its picture and lists only to seed it, after lost events, and every
// Idle/2 to verify the watch.
func (r *reader) files(final bool) ([]dumpFile, error) {
	if final || r.w == nil {
		return r.list()
	}
	if r.absorb(); r.w == nil {
		return r.list()
	}
	w := r.w
	if !w.relist && time.Since(w.listed) < r.opts.Idle/2 {
		return w.pending(r.skip), nil
	}
	if !w.relist && len(w.unreported) > 0 {
		r.fallBack() // blind
		return r.list()
	}
	return r.reseed()
}

// absorb applies the events queued since the last drain to the picture. An
// overflow marks it for a listing; a lost watch falls back.
func (r *reader) absorb() {
	w := r.w
	w.evs = w.src.drain(w.evs[:0])
	for _, ev := range w.evs {
		switch {
		case ev.op&evLost != 0:
			r.fallBack()
			return
		case ev.op&evOverflow != 0:
			if !w.relist {
				obs.CV("incprof.read.fallbacks").Inc()
			}
			w.relist = true
		case ev.op&evAdded != 0:
			w.names[ev.seq] = ev.name
			delete(w.unreported, ev.seq)
		default:
			delete(w.names, ev.seq)
			delete(w.unreported, ev.seq)
		}
	}
}

// reseed lists the directory, makes the listing the picture, then applies
// the events drained after it. That order loses nothing: a dump renamed in
// while the listing ran is in the listing or in those events. A verification
// listing also notes each dump it found that no event had named.
func (r *reader) reseed() ([]dumpFile, error) {
	w := r.w
	files, err := r.list()
	if err != nil {
		return nil, err
	}
	verify := !w.relist
	old := w.names
	w.names = make(map[int]string, len(files))
	clear(w.unreported)
	for _, f := range files {
		w.names[f.seq] = f.name
		if _, ok := old[f.seq]; verify && !ok {
			w.unreported[f.seq] = true
		}
	}
	w.listed, w.relist = time.Now(), false
	if r.absorb(); r.w == nil {
		return files, nil
	}
	return w.pending(r.skip), nil
}

// pending returns the picture's dumps not yet done, in Seq order, and drops
// the done ones from it.
func (w *watched) pending(skip func(seq int) bool) []dumpFile {
	var files []dumpFile
	for seq, name := range w.names {
		if skip(seq) {
			delete(w.names, seq)
			continue
		}
		files = append(files, dumpFile{seq, name})
	}
	sortBySeq(files)
	return files
}

// fallBack ends the watch: the tail lists the directory on every poll from
// now on.
func (r *reader) fallBack() {
	obs.CV("incprof.read.fallbacks").Inc()
	r.unwatch()
}

// watch starts the tail's watch of the directory where the platform has
// one. It comes before the first listing, so no dump lands unseen between
// the two; that listing seeds the picture.
func (r *reader) watch() {
	if src := openWatch(r.dir, r.f.SeqFromName); src != nil {
		r.w = &watched{src: src, names: map[int]string{}, unreported: map[int]bool{}, relist: true}
	}
}

// unwatch closes the watch, if there is one.
func (r *reader) unwatch() {
	if r.w != nil {
		r.w.src.close()
		r.w = nil
	}
}

// decodeDump reads and decodes one dump. A decoder whose container has no
// sequence number of its own gets the number parsed from the file name. On
// a decode failure the leading bytes are sniffed against the format
// registry so a dump of the wrong format fails with a clear cross-format
// diagnostic instead of a corruption error deep in salvage.
func (r *reader) decodeDump(file dumpFile) (*profile.Sample, error) {
	data, err := os.ReadFile(filepath.Join(r.dir, file.name))
	if err != nil {
		return nil, err
	}
	s, err := r.f.Decode(profile.NewDump(data, r.dir, file.seq))
	if err != nil {
		if g := profile.Sniff(data); g != nil && g.Name != r.f.Name {
			return nil, fmt.Errorf("incprof: %s has %s-format magic bytes, not %s (mixed dump dir? pass -format %s): %w",
				file.name, g.Name, r.f.Name, g.Name, err)
		}
		return nil, err
	}
	if s.Seq == profile.SeqUnassigned {
		s.Seq = file.seq
	}
	return s, nil
}
