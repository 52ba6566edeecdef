// Package obsflag wires the observability layer (internal/obs) into a
// command's flag set. Both cmd/phasedetect and cmd/evaluate register the
// same flags:
//
//	-trace PATH       text span tree ("-" for stdout)
//	-trace-json PATH  span tree as JSON
//	-metrics PATH     metrics registry as JSON
//	-obs-full         include volatile metrics, wall-clock timings, and a
//	                  runtime snapshot in the exports (non-deterministic)
//	-cpuprofile PATH  pprof CPU profile of the run
//	-memprofile PATH  pprof heap profile at exit
//
// Without -obs-full the exported artifacts contain only deterministic
// quantities: for a fixed -seed they are byte-identical at any -parallel,
// which CI enforces with a diff.
package obsflag

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/incprof/incprof/internal/obs"
)

// Flags holds the registered flag values.
type Flags struct {
	Trace      string
	TraceJSON  string
	Metrics    string
	Full       bool
	CPUProfile string
	MemProfile string
}

// Register adds the observability flags to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Trace, "trace", "", `write the span tree as text to this path ("-" for stdout)`)
	fs.StringVar(&f.TraceJSON, "trace-json", "", `write the span tree as JSON to this path ("-" for stdout)`)
	fs.StringVar(&f.Metrics, "metrics", "", `write the metrics registry as JSON to this path ("-" for stdout)`)
	fs.BoolVar(&f.Full, "obs-full", false, "include volatile metrics, wall-clock timings, and a runtime snapshot in the exports (non-deterministic)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this path")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile at exit to this path")
	return f
}

// wantsObs reports whether any trace/metrics export was requested.
func (f *Flags) wantsObs() bool {
	return f.Trace != "" || f.TraceJSON != "" || f.Metrics != ""
}

// Run is an activated observability session; Finish writes the exports.
type Run struct {
	flags   *Flags
	capture *obs.ProfileCapture
	stdout  io.Writer
}

// Setup enables collection (seeded like the clustering, so traces are
// reproducible) and starts any requested pprof capture. Exports to "-" go
// to stdout. Call Finish when the instrumented work is done. A nil *Run is
// returned when no flag asked for anything; Finish on it is a no-op.
func (f *Flags) Setup(seed uint64, stdout io.Writer) (*Run, error) {
	if !f.wantsObs() && f.CPUProfile == "" && f.MemProfile == "" {
		return nil, nil
	}
	if f.wantsObs() {
		obs.Enable(obs.Config{Seed: seed})
	}
	capture, err := obs.StartProfiles(f.CPUProfile, f.MemProfile)
	if err != nil {
		return nil, err
	}
	return &Run{flags: f, capture: capture, stdout: stdout}, nil
}

// Finish stops profiling, writes every requested export and turns
// collection off again. Nil-safe.
func (r *Run) Finish() error {
	if r == nil {
		return nil
	}
	if r.flags.wantsObs() {
		defer obs.Disable()
	}
	if err := r.capture.Stop(); err != nil {
		return err
	}
	opts := obs.ExportOptions{Timings: r.flags.Full, Volatile: r.flags.Full}
	if err := r.writeTo(r.flags.Trace, func(w io.Writer) error {
		return obs.WriteTraceTree(w, opts)
	}); err != nil {
		return err
	}
	if err := r.writeTo(r.flags.TraceJSON, func(w io.Writer) error {
		return obs.WriteTraceJSON(w, opts)
	}); err != nil {
		return err
	}
	return r.writeTo(r.flags.Metrics, func(w io.Writer) error {
		if err := obs.WriteMetricsJSON(w, opts); err != nil {
			return err
		}
		if r.flags.Full {
			return obs.WriteRuntimeJSON(w)
		}
		return nil
	})
}

// writeTo runs emit against path ("" skips, "-" means the run's stdout).
func (r *Run) writeTo(path string, emit func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return emit(r.stdout)
	}
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obsflag: %w", err)
	}
	if err := emit(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
