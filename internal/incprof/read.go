// read.go is the one reader of a dump directory. It feeds each decoded dump
// to a Sink in sequence order. A batch read (ReadDir) is one pass over a
// finished directory; a tail (TailDir, behind phasedetect -follow) repeats
// the same pass while a collector is still writing, then ends with one batch
// pass once the stream goes idle. Both decode through the same code, so a
// tailed run sees byte-identical snapshots to a later read of the finished
// directory.
package incprof

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/par"
	"github.com/incprof/incprof/internal/profile"
)

// TailOptions configures ReadDir and TailDir.
type TailOptions struct {
	// Format selects the frontend whose dumps are read; nil reads the
	// canonical gmon.out.N layout.
	Format *profile.Format
	// Poll is the directory re-scan interval. Default 200ms. TailDir only.
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
	// remaining dumps belong to a later resume. TailDir only.
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
// run.
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

// TailDir polls dir for dumps of the configured format (gmon.out.N by
// default) and emits each decoded snapshot to sink in sequence order as it
// appears, returning once no new dump has arrived for opts.Idle of wall
// time, however long each directory scan takes. A file that fails to decode
// is assumed to be mid-write and blocks emission (order is preserved, never
// skipped around) until the idle window expires; then the directory is read
// once more as a finished one (ReadDir), which skips (salvage) or fails on
// whatever still does not decode. The sink's Flush is NOT called — the
// caller owns stream termination.
func TailDir(dir string, sink Sink, opts TailOptions) (TailResult, error) {
	if opts.Poll <= 0 {
		opts.Poll = 200 * time.Millisecond
	}
	if opts.Idle <= 0 {
		opts.Idle = 2 * time.Second
	}
	r := newReader(dir, sink, opts)
	last := time.Now() // the last emit, or the start
	for {
		if r.stopped() {
			return r.res, nil
		}
		progress, err := r.pass(false)
		if err != nil || r.res.Stopped {
			return r.res, err
		}
		if progress {
			last = time.Now()
		} else if time.Since(last) >= opts.Idle {
			break
		}
		if opts.Stop != nil {
			select {
			case <-opts.Stop:
				r.res.Stopped = true
				return r.res, nil
			case <-time.After(opts.Poll):
			}
		} else {
			time.Sleep(opts.Poll)
		}
	}
	// The run is over; whatever still fails to decode is corrupt, not
	// mid-write.
	_, err := r.pass(true)
	return r.res, err
}

// reader is the state one read or tail carries across its passes.
type reader struct {
	dir  string
	sink Sink
	opts TailOptions
	dec  decoder
	syms symbols
	done map[int]bool // Seqs emitted, or seen by the pipeline
	res  TailResult
}

func newReader(dir string, sink Sink, opts TailOptions) *reader {
	return &reader{
		dir: dir, sink: sink, opts: opts,
		dec:  formatDecoder(opts.Format),
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
		c.snaps[i], c.errs[i] = r.dec.decodeDump(filepath.Join(r.dir, files[i].name), files[i].seq)
		if c.errs[i] == nil {
			r.syms.intern(c.snaps[i])
		}
	})
	return c
}

// pass lists the directory once and emits every dump not yet done, in Seq
// order, decoding chunk by chunk. Above parallelism 1 the next chunk
// decodes on the pool while this one is emitted, unless this one holds a
// dump that ends the pass; at 1 everything runs inline. The first dump that
// fails to decode ends a pass that is not final with nothing after it
// emitted, because it may still be being written. A final pass treats the
// directory as finished: it skips the dump (salvage) or fails on it.
// progress reports whether anything was emitted.
func (r *reader) pass(final bool) (progress bool, err error) {
	files, err := listDumps(r.dir, r.dec.prefix, r.skip)
	if err != nil {
		return false, err
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
		for i, f := range c.files {
			if !final && r.stopped() {
				return progress, nil
			}
			if c.errs[i] != nil {
				if !final {
					return progress, nil
				}
				if !r.opts.Salvage {
					return progress, fmt.Errorf("incprof: decoding %s: %w", f.name, c.errs[i])
				}
				sk := SkippedFile{Name: f.name, Seq: f.seq, Err: c.errs[i]}
				r.res.Skipped = append(r.res.Skipped, sk)
				obs.C("incprof.read.skipped").Inc()
				if r.opts.OnSkip != nil {
					r.opts.OnSkip(sk)
				}
				continue
			}
			s := c.snaps[i]
			c.snaps[i] = nil // the sink owns it now; the chunk must not pin it
			if err := r.sink.Emit(s); err != nil {
				return progress, err
			}
			r.done[f.seq] = true
			r.res.Emitted++
			r.res.Last = s
			obs.C("incprof.read.emitted").Inc()
			progress = true
		}
	}
	return progress, nil
}

// dumpFile is one <prefix>N directory entry.
type dumpFile struct {
	seq  int
	name string
}

// listDumps returns the <prefix>N entries under dir in Seq order, leaving
// out the Seqs skip reports (nil skips none). Entries are read unsorted: the
// Seq sort is the only order that matters, so the name sort os.ReadDir does
// would be wasted work on every poll of a long tail.
func listDumps(dir, prefix string, skip func(seq int) bool) ([]dumpFile, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	entries, err := f.ReadDir(-1)
	f.Close()
	if err != nil {
		return nil, err
	}
	var files []dumpFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := seqOf(e.Name(), prefix); ok && (skip == nil || !skip(seq)) {
			files = append(files, dumpFile{seq, e.Name()})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].seq < files[j].seq })
	return files, nil
}

// seqOf parses the N of a <prefix>N file name. Only the spelling the writers
// produce counts — decimal digits, no sign, no leading zero, a value that
// fits in int: gmon.out.07 or gmon.out.+7 would alias dump 7, so such a
// name is foreign, like any other file.
func seqOf(name, prefix string) (int, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok || rest == "" || (rest[0] == '0' && len(rest) > 1) {
		return 0, false
	}
	seq := 0
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int(c - '0')
		if seq > (math.MaxInt-d)/10 {
			return 0, false
		}
		seq = seq*10 + d
	}
	return seq, true
}
