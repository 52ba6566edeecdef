// stream.go absorbs cmd/streamgate: the O(1)-memory contract of the
// streaming differencer and the overload-control contract of the bounded
// admission queue, run in-process against a synthetic snapshot stream.
// Snapshots are generated one at a time and discarded after ingestion, so
// the only run-length-proportional state that COULD accumulate is inside the
// stage under test.
package tasks

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/incprof/incprof/internal/gate"
	"github.com/incprof/incprof/internal/gate/trajectory"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/stream"
)

// liveHeap returns HeapAlloc after a forced collection, so only reachable
// state is counted.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// discard drops a differenced profile: the gates measure the differencer
// alone.
func discard(interval.Profile) error { return nil }

// synthStream feeds n synthetic snapshots of funcs functions into sink,
// seed-deterministically, calling observe(i) after each emit.
func synthStream(sink stream.Sink, n, funcs int, seed int64, observe func(i int)) error {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, funcs)
	cumSamples := make([]int64, funcs)
	cumCalls := make([]int64, funcs)
	for i := range names {
		names[i] = fmt.Sprintf("fn_%03d", i)
	}
	period := 10 * time.Millisecond
	for i := 0; i < n; i++ {
		s := &profile.Sample{
			Seq:          i,
			Timestamp:    time.Duration(i+1) * time.Second,
			SamplePeriod: period,
			Funcs:        make([]profile.FuncRecord, funcs),
		}
		for j := range names {
			cumSamples[j] += int64(rng.Intn(20))
			cumCalls[j] += int64(rng.Intn(4))
			s.Funcs[j] = profile.FuncRecord{
				Name:     names[j],
				Samples:  cumSamples[j],
				SelfTime: time.Duration(cumSamples[j]) * period,
				Calls:    cumCalls[j],
			}
		}
		if err := sink.Emit(s); err != nil {
			return err
		}
		observe(i)
	}
	return nil
}

// runStreamHeap gates the incremental differencer's memory: the gate warms
// up for the first quarter of the stream (letting maps and the reorder
// window reach their working size), then samples the live heap after each
// subsequent decile; growth between the warmup baseline and the final sample
// must stay under the threshold no matter how long the stream is.
func runStreamHeap(c *gate.Context) error {
	const (
		n         = 20000
		funcs     = 200
		threshold = int64(2 << 20)
	)
	d := stream.NewDifferencer(stream.DifferencerOptions{Robust: true}, discard)

	warmup := n / 4
	decile := (n - warmup) / 10
	var baseline uint64
	err := synthStream(d, n, funcs, 1, func(i int) {
		if i+1 == warmup {
			baseline = liveHeap()
		} else if i+1 > warmup && decile > 0 && (i+1-warmup)%decile == 0 {
			c.Logf("heap after %5d snapshots: %d bytes", i+1, liveHeap())
		}
	})
	if err != nil {
		return err
	}
	if err := d.Flush(); err != nil {
		return err
	}
	// The first dump differences against program start, so a clean stream
	// of n snapshots yields exactly n profiles.
	if got := d.Profiles(); got != n {
		return fmt.Errorf("differenced %d profiles from %d snapshots", got, n)
	}
	final := liveHeap()
	growth := int64(final) - int64(baseline)
	c.Logf("heap %d -> %d bytes (growth %+d, threshold %d)", baseline, final, growth, threshold)
	c.Record("stream/heap_growth_bytes", trajectory.Metric{Value: float64(growth), Unit: "bytes", Ungated: true})
	if growth > threshold {
		return fmt.Errorf("steady-state heap grows with stream length: %+d bytes past warmup (threshold %d)", growth, threshold)
	}
	return nil
}

// slowSink throttles the consumer side so the producer outruns it and the
// admission queue actually overloads.
type slowSink struct {
	down  stream.Sink
	delay time.Duration
}

func (s slowSink) Emit(x *profile.Sample) error {
	time.Sleep(s.delay)
	return s.down.Emit(x)
}

func (s slowSink) Flush() error { return s.down.Flush() }

// runOverload gates the admission stage: a producer much faster than a
// deliberately slow consumer feeds a bounded queue under the drop-oldest
// shed policy. The assertions are the overload-control contract — the queue
// never exceeds its bound (heap stays flat no matter how fast the producer
// runs), load actually sheds, and every produced snapshot is accounted for
// as either admitted or shed.
func runOverload(c *gate.Context) error {
	const (
		n             = 4000
		funcs         = 50
		maxPending    = 64
		consumerDelay = 200 * time.Microsecond
		threshold     = int64(2 << 20)
	)
	// Shed dumps surface as gaps only the robust kernel absorbs; the scale
	// policy emits exactly one profile per observed dump — gap spans
	// collapse into the dump that ends them — so the profile count equals
	// the admitted count no matter how wide the shed spans happen to be on
	// this machine.
	d := stream.NewDifferencer(stream.DifferencerOptions{Robust: true, Policy: interval.GapScale}, discard)
	adm := stream.NewAdmission(slowSink{down: d, delay: consumerDelay}, stream.AdmissionOptions{
		MaxPending: maxPending,
		Policy:     stream.ShedDropOldest,
	})

	warmup := n / 4
	var baseline uint64
	err := synthStream(adm, n, funcs, 1, func(i int) {
		if i+1 == warmup {
			baseline = liveHeap()
		}
	})
	if err != nil {
		return err
	}
	if err := adm.Flush(); err != nil {
		return err
	}
	admitted, shed := adm.Admitted(), adm.Shed()
	final := liveHeap()
	growth := int64(final) - int64(baseline)
	c.Logf("%d produced: %d admitted, %d shed (bound %d); heap %d -> %d bytes (growth %+d)",
		n, admitted, shed, maxPending, baseline, final, growth)
	c.Record("overload/admitted", trajectory.Metric{Value: float64(admitted), Unit: "count", Ungated: true})
	c.Record("overload/shed", trajectory.Metric{Value: float64(shed), Unit: "count", Ungated: true})

	// Conservation: every produced snapshot was either handed to the
	// consumer or deliberately shed — never silently lost.
	if admitted+shed != n {
		return fmt.Errorf("admitted %d + shed %d != produced %d", admitted, shed, n)
	}
	if shed == 0 {
		return fmt.Errorf("overload never shed: consumer not slow enough to exercise the bound")
	}
	if got := d.Profiles(); got != admitted {
		return fmt.Errorf("differenced %d profiles from %d admitted snapshots", got, admitted)
	}
	if growth > threshold {
		return fmt.Errorf("heap grew %+d bytes under overload (threshold %d): queue bound leaked", growth, threshold)
	}
	return nil
}
