package incprof_test

import (
	"fmt"
	"time"

	incprof "github.com/incprof/incprof"
)

// Example runs the complete paper workflow on a toy two-phase workload:
// collect interval profiles, detect phases, and print the instrumentation
// sites Algorithm 1 selects.
func Example() {
	rt := incprof.NewRuntime(nil)
	prof := incprof.NewProfiler(rt, 0)
	col := incprof.NewCollector(rt, prof, incprof.CollectorOptions{})

	main := rt.Register("main")
	step := rt.Register("step")
	solve := rt.Register("solve")
	rt.Call(main, func() {
		for i := 0; i < 41; i++ {
			rt.Call(step, func() { rt.Work(250 * time.Millisecond) })
		}
		rt.Call(solve, func() { rt.Work(12 * time.Second) })
	})
	if err := col.Close(); err != nil {
		fmt.Println("collect:", err)
		return
	}

	snaps, _ := col.Store().Snapshots()
	profiles, _ := incprof.DifferenceSnapshots(snaps)
	det, _ := incprof.Detect(profiles, incprof.DetectOptions{})
	for _, p := range det.Phases {
		for _, s := range p.Sites {
			fmt.Printf("phase %d: %s (%s)\n", p.ID, s.Function, s.Type)
		}
	}
	// Output:
	// phase 0: step (body)
	// phase 1: solve (loop)
}

// ExampleEKG shows stand-alone AppEKG heartbeat accumulation: beats within
// one collection interval flush as a single record with count and mean
// duration.
func ExampleEKG() {
	clock := incprof.NewClock()
	sink := &printSink{}
	ekg := incprof.NewEKG(incprof.EKGOptions{
		Clock: clock,
		Sinks: []incprof.HeartbeatSink{sink},
	})
	const hb incprof.HeartbeatID = 1
	for i := 0; i < 4; i++ {
		ekg.Begin(hb)
		clock.Advance(200 * time.Millisecond)
		ekg.End(hb)
	}
	clock.Advance(400 * time.Millisecond) // cross the 1s interval boundary
	// Output:
	// interval 0: hb1 count=4 mean=200ms
}

type printSink struct{}

func (printSink) Emit(recs []incprof.HeartbeatRecord) error {
	for _, r := range recs {
		fmt.Printf("interval %d: hb%d count=%d mean=%v\n", r.Interval, r.HB, r.Count, r.MeanDuration)
	}
	return nil
}
