package main

import (
	"fmt"
	"strconv"
	"time"
)

// mode is how the program under test meets a workload's dumps.
type mode int

const (
	// batch: every dump exists before phasedetect starts.
	batch mode = iota
	// live: dumps land on an open-loop schedule while phasedetect -follow
	// tails the directory.
	live
	// resume: phasedetect -follow -resume restarts from a crash image.
	resume
)

// workload is one set of inputs and the phasedetect invocation that
// analyzes them.
type workload struct {
	name   string
	mode   mode
	corpus corpusSpec
	// selection is phasedetect's -selection: "elbow" or "silhouette".
	selection string
	// rate is the live schedule in dumps per second.
	rate int
}

// Follow-mode settings: fast polling, a short idle window, and the
// checkpoint layer with fsync on. The live replay runs 50x faster than the
// run it stands for, so the refresh and snapshot cadences are twice the
// CLI's defaults (10 and 25 dumps). At the defaults the analyzer used two
// thirds of a core by the end of the stream, and a host at half speed fell
// behind the schedule for good; at these it uses a third.
const (
	followIdle   = 500 * time.Millisecond
	refreshEvery = 20
	ckptEvery    = 50
)

func followFlags() []string {
	return []string{"-follow", "-follow-poll", "10ms", "-follow-idle", followIdle.String(),
		"-refresh", strconv.Itoa(refreshEvery), "-checkpoint-every", strconv.Itoa(ckptEvery)}
}

// liveSpec is the corpus the live-follow and resume workloads share: 120
// functions, each phase running 6 shared ones and 19 of its own. The
// analyzer's work per dump grows with the stream; at 1,500 dumps the last
// refreshes stopped fitting between dumps whenever the host slowed, and the
// label lag then grew without bound.
var liveSpec = corpusSpec{
	Format: "gmon", Dumps: 1000, Namespace: 120, Phases: 6, Shared: 6, Active: 25,
	MinRun: 20, MaxRun: 120, Samples: 500, Skew: 0.5, Jitter: 0.3,
	Symbol: func(i int) string { return fmt.Sprintf("app_region_%03d", i) },
}

// workloads are the benchmark's workloads, in the order -workload all runs
// them. The comment on each says which layers it is meant to load.
var workloads = []workload{
	{
		// The paper's HPC use over a long run: 2 h of 1 s dumps. Each phase
		// leaves out its own 4 of the 24 functions, so the matrix is 83 %
		// non-zero and the k sweep takes the dense-kernel fallback; the sweep
		// over 7,200 rows and per-file load dominate, elbow selection costs
		// nothing.
		name: "hpc-long",
		mode: batch,
		corpus: corpusSpec{
			Format: "gmon", Dumps: 7200, Namespace: 24, Phases: 6, Shared: 0, Active: 20,
			MinRun: 20, MaxRun: 120, Samples: 1000, Skew: 0.3, Jitter: 0.3,
			Symbol: func(i int) string { return fmt.Sprintf("solver_kernel_%02d", i) },
		},
		selection: "elbow",
	},
	{
		// A symbol-rich Go service (Atys-style): 6,000 symbols, about 300 hot
		// per phase, about 1,340 feature dimensions. pprof decode,
		// differencing and matrix build dominate; clustering is small but
		// runs the sparse kernels and silhouette selection.
		name: "service-wide",
		mode: batch,
		corpus: corpusSpec{
			Format: "pprof", Dumps: 600, Namespace: 6000, Phases: 6, Shared: 92, Active: 300,
			MinRun: 20, MaxRun: 120, Samples: 2000, Skew: 0.8, Jitter: 0.3,
			Symbol: func(i int) string {
				return fmt.Sprintf("github.com/acme/shop/internal/svc%02d.(*handler%02d).Serve%02d", i/100, i/10%10, i%10)
			},
		},
		selection: "silhouette",
	},
	{
		// The paper's live use: a 17-minute run replayed 50x fast while
		// phasedetect -follow tails it. Refresh re-clustering grows with the
		// stream, and the WAL and snapshots write every dump.
		name:      "live-follow",
		mode:      live,
		corpus:    liveSpec,
		selection: "elbow",
		rate:      50,
	},
	{
		// The live-follow corpus resumed from a crash image (a snapshot at
		// 800 dumps plus a 10-record WAL): snapshot decode, engine restore
		// and WAL replay, the read side of what live-follow writes.
		name:      "resume",
		mode:      resume,
		corpus:    liveSpec,
		selection: "elbow",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled returns the workload with its corpus shrunk by div (phase segment
// lengths too, so the phase structure survives), for smoke tests.
func (w workload) scaled(div int) workload {
	if div <= 1 {
		return w
	}
	shrink := func(n, floor int) int { return max(n/div, floor) }
	// 80 dumps leave the resume image a snapshot: 50 dumps plus 10 in the WAL.
	w.corpus.Dumps = shrink(w.corpus.Dumps, 80)
	w.corpus.MinRun = shrink(w.corpus.MinRun, 4)
	w.corpus.MaxRun = shrink(w.corpus.MaxRun, 8)
	return w
}

// imageDumps is how many dumps the resume workload's crash image covers:
// whole snapshot periods up to four fifths of the run, plus 10 dumps left
// in the WAL (810 for the full corpus: a snapshot at 800 plus 10 WAL
// records).
func (w workload) imageDumps() int {
	return w.corpus.Dumps*4/5/ckptEvery*ckptEvery + 10
}
