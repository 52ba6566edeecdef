package stream_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

// liveShapedDumps calls emit with n cumulative dumps shaped like the
// benchmark's live corpus: 120 functions, 6 phases each running 6 shared
// functions and 19 of its own, 500 samples of 10 ms per interval, phase
// segments of 20 to 120 intervals. Each dump is built when it is emitted,
// so the caller holds none of them.
func liveShapedDumps(n int, emit func(*profile.Sample)) {
	const funcs, phases, shared, active, samples = 120, 6, 6, 25, 500
	const period = 10 * time.Millisecond
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(funcs)
	own := active - shared
	members := make([][]int, phases)
	for p := range members {
		members[p] = append(members[p], perm[:shared]...)
		members[p] = append(members[p], perm[shared+p*own:shared+(p+1)*own]...)
	}
	cum := make([]profile.FuncRecord, funcs)
	for f := range cum {
		cum[f].Name = fmt.Sprintf("app_region_%03d", f)
	}
	seen := make([]bool, funcs)
	phase, left := 0, 0
	for i := 0; i < n; i++ {
		if left == 0 {
			phase, left = rng.Intn(phases), 20+rng.Intn(101)
		}
		left--
		for s := 0; s < samples; s++ {
			f := members[phase][rng.Intn(active)]
			seen[f] = true
			cum[f].Samples++
			cum[f].SelfTime += period + time.Duration(rng.Intn(1000))
			cum[f].Calls += int64(1 + f%50)
		}
		d := &profile.Sample{Seq: i, Timestamp: time.Duration(i+1) * time.Second, SamplePeriod: period}
		for f, ok := range seen {
			if ok {
				d.Funcs = append(d.Funcs, cum[f])
			}
		}
		sort.Slice(d.Funcs, func(a, b int) bool { return d.Funcs[a].Name < d.Funcs[b].Name })
		emit(d)
	}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// The engine holds each interval once, in its store: on a live-shaped
// stream with refreshes and labels off, its heap grows by at most 0.6 KB
// per interval, where holding each interval as string-keyed profile maps
// beside the matrix took about 3.5 KB.
func TestEngineHeapPerIntervalBounded(t *testing.T) {
	const n = 4000
	before := liveHeap()
	eng := stream.New(stream.Options{Phase: baseOpts()})
	liveShapedDumps(n, func(s *profile.Sample) {
		if err := eng.Emit(s); err != nil {
			t.Fatal(err)
		}
	})
	after := liveHeap()
	runtime.KeepAlive(eng)
	perInterval := (float64(after) - float64(before)) / n
	t.Logf("engine heap after %d intervals: %.1f KiB, %.0f B per interval", n, (float64(after)-float64(before))/1024, perInterval)
	if perInterval > 600 {
		t.Fatalf("engine heap grows by %.0f B per interval, want at most 600", perInterval)
	}
}

// Differencing a dump and storing its interval allocates nothing per
// interval beyond the store's amortized growth: a strict EmitBatch over a
// live-shaped stream, labels and refreshes off, makes at most one
// allocation per interval, where building string-keyed profile maps for
// each interval took about 21.
func TestEngineEmitBatchAllocsPerInterval(t *testing.T) {
	const n = 2000
	dumps := make([]*profile.Sample, 0, n)
	liveShapedDumps(n, func(s *profile.Sample) { dumps = append(dumps, s) })
	eng := stream.New(stream.Options{Phase: baseOpts()})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := eng.EmitBatch(dumps); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perInterval := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.2f allocations per interval over %d intervals", perInterval, n)
	if perInterval > 1 {
		t.Fatalf("EmitBatch makes %.2f allocations per interval, want at most 1", perInterval)
	}
}
