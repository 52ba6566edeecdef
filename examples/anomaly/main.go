// Anomaly demonstrates the heartbeat-history analysis the paper motivates
// (§III: "as a history of an application is built up this data can be used
// to identify when the application is running poorly"): build a baseline
// from healthy runs of MiniAMR's discovered heartbeats, then inject a
// mid-run slowdown (a noisy-neighbor stand-in) into a new run and watch the
// detector flag exactly the degraded intervals.
//
//	go run ./examples/anomaly
package main

import (
	"fmt"
	"github.com/incprof/incprof/internal/apps"
	"github.com/incprof/incprof/internal/apps/miniamr"
	"github.com/incprof/incprof/internal/hbanalysis"
	"github.com/incprof/incprof/internal/heartbeat"
	"github.com/incprof/incprof/internal/pipeline"
	"log"
)

func main() {
	const scale = 0.2
	app, err := apps.New("miniamr", scale)
	if err != nil {
		log.Fatal(err)
	}

	// Discover instrumentation sites once.
	res, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true})
	if err != nil {
		log.Fatal(err)
	}
	an, err := pipeline.Analyze(res, pipeline.AnalyzeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sites := heartbeat.SitesFromDetection(an.Detection)
	fmt.Printf("baseline app: miniamr, %d discovered heartbeat sites\n", len(sites))

	// Healthy reference runs (different seeds -> slightly different
	// stencil data, same behavior).
	var refRuns [][]heartbeat.Record
	for seed := uint64(1); seed <= 3; seed++ {
		p := miniamr.DefaultParams(scale)
		p.Seed = seed
		hb, err := pipeline.RunWithHeartbeats(miniamr.New(p), sites)
		if err != nil {
			log.Fatal(err)
		}
		refRuns = append(refRuns, hb.Records)
	}
	baseline, err := hbanalysis.NewBaseline(refRuns...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline built from %d healthy runs\n", baseline.Runs())

	// A "degraded" run: the same workload, but intervals 20-24 of the
	// dominant heartbeat report 3x durations (as a failing node would).
	p := miniamr.DefaultParams(scale)
	p.Seed = 9
	hb, err := pipeline.RunWithHeartbeats(miniamr.New(p), sites)
	if err != nil {
		log.Fatal(err)
	}
	degraded := append([]heartbeat.Record(nil), hb.Records...)
	for i := range degraded {
		if degraded[i].HB == sites[0].ID && degraded[i].Interval >= 20 && degraded[i].Interval < 25 {
			degraded[i].MeanDuration *= 3
		}
	}

	healthyAnoms := baseline.Check(hb.Records)
	fmt.Printf("\nhealthy run: %d anomalies, slowdown factor %.3f\n",
		len(healthyAnoms), baseline.SlowdownFactor(hb.Records))

	anoms := baseline.Check(degraded)
	fmt.Printf("degraded run: %d anomalies, slowdown factor %.3f\n",
		len(anoms), baseline.SlowdownFactor(degraded))
	for i, a := range anoms {
		if i == 8 {
			fmt.Println("  ...")
			break
		}
		fmt.Println("  " + hbanalysis.FormatAnomaly(a))
	}
}
