// tail.go follows a DirStore directory while a collector is still writing
// into it, feeding each new dump to a Sink in sequence order — the ingestion
// side of live phase detection (phasedetect -follow). Decoding reuses the
// same reader as the batch load, so a tailed run sees byte-identical
// snapshots to a later Snapshots() call over the finished directory.
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
	"github.com/incprof/incprof/internal/profile"
)

// TailOptions configures TailDir.
type TailOptions struct {
	// Format selects the frontend whose dumps the tail follows; nil tails
	// the canonical gmon.out.N layout.
	Format *profile.Format
	// Poll is the directory re-scan interval. Default 200ms.
	Poll time.Duration
	// Idle ends the tail: once no new dump has been emitted for this
	// long, the run is assumed finished. Default 2s.
	Idle time.Duration
	// Salvage skips permanently-undecodable dumps (reported via OnSkip)
	// instead of failing the tail, mirroring SnapshotsSalvageP.
	Salvage bool
	// OnSkip, if set, is called for each dump skipped in salvage mode.
	OnSkip func(SkippedFile)
	// Seen, if set, marks dumps the pipeline has already disposed of — a
	// resumed run's accepted and shed Seqs. The tail treats them as done
	// and never re-emits them.
	Seen func(seq int) bool
	// Stop, if set, ends the tail early when it becomes readable or
	// closed: TailDir returns what it has emitted so far with no error
	// and no terminal salvage sweep, because the run is not over — the
	// remaining dumps belong to a later resume.
	Stop <-chan struct{}
}

// TailResult summarizes a finished tail.
type TailResult struct {
	// Emitted counts the snapshots delivered to the sink.
	Emitted int
	// Skipped lists the undecodable dumps (salvage mode only).
	Skipped []SkippedFile
	// Last is the final snapshot emitted, nil if none.
	Last *profile.Sample
	// Stopped reports the tail ended because opts.Stop fired, not because
	// the stream went idle.
	Stopped bool
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

// TailDir polls dir for dumps of the configured format (gmon.out.N by
// default) and emits each decoded snapshot to
// sink in sequence order as it appears, returning once no new dump has
// arrived for opts.Idle of wall time, however long each directory scan
// takes. A file that fails to decode is assumed to be
// mid-write and blocks emission (order is preserved, never skipped around)
// until the idle window expires; at that point it is either skipped
// (salvage) or fails the tail. The sink's Flush is NOT called — the caller
// owns stream termination.
func TailDir(dir string, sink Sink, opts TailOptions) (TailResult, error) {
	if opts.Poll <= 0 {
		opts.Poll = 200 * time.Millisecond
	}
	if opts.Idle <= 0 {
		opts.Idle = 2 * time.Second
	}
	var res TailResult
	dec := formatDecoder(opts.Format)
	done := make(map[int]bool)
	emit := func(s *profile.Sample, seq int) error {
		if err := sink.Emit(s); err != nil {
			return err
		}
		done[seq] = true
		res.Emitted++
		res.Last = s
		obs.C("incprof.tail.emitted").Inc()
		return nil
	}
	stopped := func() bool {
		if opts.Stop == nil {
			return false
		}
		select {
		case <-opts.Stop:
			res.Stopped = true
			return true
		default:
			return false
		}
	}
	isDone := func(seq int) bool { return done[seq] }
	last := time.Now() // the last emit, or the start
	for {
		if stopped() {
			return res, nil
		}
		files, err := listDumps(dir, dec.prefix, isDone)
		if err != nil {
			return res, err
		}
		progress := false
		for _, f := range files {
			if opts.Seen != nil && opts.Seen(f.seq) {
				done[f.seq] = true
				continue
			}
			if stopped() {
				return res, nil
			}
			s, err := dec.decodeDump(filepath.Join(dir, f.name), f.seq)
			if err != nil {
				// Possibly still being written: retry next poll, and do
				// not emit anything past it out of order.
				break
			}
			if err := emit(s, f.seq); err != nil {
				return res, err
			}
			progress = true
		}
		if progress {
			last = time.Now()
		} else if time.Since(last) >= opts.Idle {
			break
		}
		if opts.Stop != nil {
			select {
			case <-opts.Stop:
				res.Stopped = true
				return res, nil
			case <-time.After(opts.Poll):
			}
		} else {
			time.Sleep(opts.Poll)
		}
	}
	// The run is over; whatever still fails to decode is corrupt, not
	// mid-write. Sweep the remainder in order, skipping or failing.
	files, err := listDumps(dir, dec.prefix, isDone)
	if err != nil {
		return res, err
	}
	for _, f := range files {
		if opts.Seen != nil && opts.Seen(f.seq) {
			continue
		}
		s, err := dec.decodeDump(filepath.Join(dir, f.name), f.seq)
		if err != nil {
			if !opts.Salvage {
				return res, fmt.Errorf("incprof: decoding %s: %w", f.name, err)
			}
			sk := SkippedFile{Name: f.name, Seq: f.seq, Err: err}
			res.Skipped = append(res.Skipped, sk)
			obs.C("incprof.tail.skipped").Inc()
			if opts.OnSkip != nil {
				opts.OnSkip(sk)
			}
			continue
		}
		if err := emit(s, f.seq); err != nil {
			return res, err
		}
	}
	return res, nil
}
