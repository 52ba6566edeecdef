package main

import (
	"slices"
	"strconv"
	"time"
)

// The host the benchmark was first run on, a shared 2-vCPU virtual machine,
// changes speed by up to 1.8x for minutes at a time, and the program's own
// CPU time moves with it. So that a later change is judged against the
// program and not the host, the times the untraced pass reports are scaled
// to a reference speed: between its measured runs the pass times a fixed
// computation that shares no code with the program under test, and it
// multiplies each measured time by refMs over that computation's mean time.
// A scaled time is the time the run would have taken on a host where the
// reference computation takes refMs.
//
// The mean, not the median, sets the scale: at a given moment the host runs
// either fast or slow, and a run of the program, like the mean, takes the
// mix of the two over its whole length. For the same reason the 20 s live
// run is scaled by timings taken during it, not by the pass's: over ten
// runs that cut the spread of its CPU time from 8 % to 4 % and of its
// 99th-percentile label lag from 25 % to 11 %.
const refMs = 12.0

// Reference computation sizes: a few Lloyd steps over a small dense matrix,
// string-keyed map updates and a sort, about refMs on that host.
const (
	refRows, refDims, refK = 512, 64, 4
	refKeys, refSort       = 2048, 8192
	refRounds              = 8
)

// speed times the reference computation. Its buffers are allocated once, so
// timing it allocates nothing and cannot set off the garbage collector.
type speed struct {
	ms    []float64 // one entry per timing
	pts   []float64
	cent  []float64
	keys  []string
	m     map[string]int
	xs    []float64
	check float64 // consumes the results, so the compiler keeps the work
}

func newSpeed() *speed {
	s := &speed{
		pts:  make([]float64, refRows*refDims),
		cent: make([]float64, refK*refDims),
		keys: make([]string, refKeys),
		m:    make(map[string]int, refKeys),
		xs:   make([]float64, refSort),
	}
	for i := range s.pts {
		s.pts[i] = float64(i*7919%1000) / 1000
	}
	for i := range s.keys {
		s.keys[i] = "github.com/acme/shop/internal/svc.(*handler).Serve" + strconv.Itoa(i)
	}
	s.work() // fills the map's buckets
	return s
}

// sample times the reference computation three times.
func (s *speed) sample() {
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		s.work()
		s.ms = append(s.ms, float64(time.Since(t0))/1e6)
	}
}

// sampleEvery times the reference computation once per period, beside a
// program that runs for a long stretch, until the returned stop is called;
// stop times it once more and returns every timing. It is meant for a
// program that leaves most of the host idle, such as the live analyzer
// between dumps: one timing per period takes little of the host from it.
func sampleEvery(period time.Duration) (stop func() *speed) {
	s := newSpeed()
	once := func() {
		t0 := time.Now()
		s.work()
		s.ms = append(s.ms, float64(time.Since(t0))/1e6)
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				once()
			}
		}
	}()
	return func() *speed {
		close(quit)
		<-done
		once()
		return s
	}
}

// factor is what a measured time is multiplied by to give it at the
// reference speed.
func (s *speed) factor() float64 {
	sum := 0.0
	for _, x := range s.ms {
		sum += x
	}
	return refMs / (sum / float64(len(s.ms)))
}

func (s *speed) work() {
	for r := 0; r < refRounds; r++ {
		copy(s.cent, s.pts[:refK*refDims])
		for it := 0; it < 3; it++ {
			for i := 0; i < refRows; i++ {
				best, bd := 0, 1e300
				for c := 0; c < refK; c++ {
					d := 0.0
					for j := 0; j < refDims; j++ {
						x := s.pts[i*refDims+j] - s.cent[c*refDims+j]
						d += x * x
					}
					if d < bd {
						best, bd = c, d
					}
				}
				s.check += float64(best)
			}
		}
		clear(s.m)
		for pass := 0; pass < 2; pass++ {
			for i, k := range s.keys {
				s.m[k] += i
			}
		}
		for i := range s.xs {
			s.xs[i] = float64(i * 104729 % refSort)
		}
		slices.Sort(s.xs)
		s.check += float64(len(s.m)) + s.xs[refSort/2]
	}
}

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
