// Customapp shows how to bring your own workload to the framework: a small
// parallel "weather model" with distinct physics / dynamics / output phases
// runs on the MPI-like rank substrate, gets profiled by IncProf, and has its
// phases discovered and heartbeat-instrumented — without being part of the
// built-in evaluation suite.
//
//	go run ./examples/customapp
package main

import (
	"fmt"
	"log"
	"time"

	incprof "github.com/incprof/incprof"
	"github.com/incprof/incprof/internal/mpi"
	"github.com/incprof/incprof/internal/profile"
)

// weatherModel is the user-defined workload body for one rank. Phases:
// spin-up (short radiation steps), a long advection solve per cycle, and a
// checkpoint every 3 cycles.
func weatherModel(r *mpi.Rank) {
	rt := r.Runtime()
	fnMain := rt.Register("main")
	fnRadiation := rt.Register("radiation_step")
	fnAdvection := rt.Register("advection_solve")
	fnCheckpoint := rt.Register("write_checkpoint")

	rt.Call(fnMain, func() {
		for cycle := 0; cycle < 9; cycle++ {
			for i := 0; i < 8; i++ {
				rt.Call(fnRadiation, func() { rt.Work(150 * time.Millisecond) })
			}
			// Ranks exchange halo data, then solve.
			r.RingExchange([]float64{float64(cycle)})
			rt.Call(fnAdvection, func() { rt.Work(2800 * time.Millisecond) })
			if cycle%3 == 2 {
				rt.Call(fnCheckpoint, func() { rt.Work(1300 * time.Millisecond) })
			}
			r.Barrier()
		}
	})
}

func main() {
	const ranks = 4

	// Phase 1: collect IncProf snapshots from every rank.
	stores := make([]*incprof.MemStore, ranks)
	err := mpi.Run(mpi.Config{Size: ranks}, nil, func(r *mpi.Rank) {
		prof := incprof.NewProfiler(r.Runtime(), 0)
		stores[r.ID()] = incprof.NewMemStore()
		col := incprof.NewCollector(r.Runtime(), prof, incprof.CollectorOptions{Store: stores[r.ID()]})
		defer col.Close()
		weatherModel(r)
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 2: analyze the representative rank.
	var snaps []*profile.Sample
	if snaps, err = stores[0].Snapshots(); err != nil {
		log.Fatal(err)
	}
	profiles, err := incprof.DifferenceSnapshots(snaps)
	if err != nil {
		log.Fatal(err)
	}
	det, err := incprof.Detect(profiles, incprof.DetectOptions{
		Features: incprof.FeatureOptions{Exclude: mpi.IsMPIFunc},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("weather model: %d intervals, %d phases\n", len(profiles), len(det.Phases))
	for _, p := range det.Phases {
		for _, s := range p.Sites {
			fmt.Printf("  phase %d: instrument %s (%s), %.0f%% of phase\n",
				p.ID, s.Function, s.Type, s.PhasePct)
		}
	}

	// Phase 3: re-run with heartbeats on the discovered sites and show
	// rank 0's per-interval records.
	sites := incprof.SitesFromDetection(det)
	var rank0 []incprof.HeartbeatRecord
	err = mpi.Run(mpi.Config{Size: ranks}, nil, func(r *mpi.Rank) {
		sink := &memSink{}
		ekg := incprof.NewEKG(incprof.EKGOptions{
			Clock: r.Runtime().Clock(),
			Sinks: []incprof.HeartbeatSink{sink},
		})
		incprof.Instrument(r.Runtime(), ekg, sites, 0)
		defer func() {
			ekg.Close()
			if r.ID() == 0 {
				rank0 = sink.recs
			}
		}()
		weatherModel(r)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrank 0 heartbeat records (%d):\n", len(rank0))
	for _, rec := range rank0[:min(8, len(rank0))] {
		fmt.Printf("  t=%-4v hb=%d count=%-3d mean=%v\n", rec.Time, rec.HB, rec.Count, rec.MeanDuration)
	}
	if len(rank0) > 8 {
		fmt.Println("  ...")
	}
}

type memSink struct {
	recs []incprof.HeartbeatRecord
}

func (m *memSink) Emit(recs []incprof.HeartbeatRecord) error {
	m.recs = append(m.recs, recs...)
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
