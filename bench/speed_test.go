package main

import (
	"testing"
	"time"
)

// Timing the reference computation must not allocate, or the garbage
// collector's work on the benchmark's own heap would leak into the scale.
func TestReferenceWorkAllocatesNothing(t *testing.T) {
	s := newSpeed()
	if n := testing.AllocsPerRun(3, s.work); n != 0 {
		t.Errorf("the reference computation allocates %v times per run", n)
	}
	s.sample()
	if len(s.ms) != 3 || s.factor() <= 0 {
		t.Errorf("after one sample: %d timings, factor %v", len(s.ms), s.factor())
	}
}

// Sampling beside a program times the computation once per period and once
// more at the end, so even a stretch shorter than the period has a factor.
func TestSampleEvery(t *testing.T) {
	if s := sampleEvery(time.Hour)(); len(s.ms) != 1 || s.factor() <= 0 {
		t.Errorf("stopped at once: %d timings, factor %v", len(s.ms), s.factor())
	}
	stop := sampleEvery(time.Millisecond)
	time.Sleep(100 * time.Millisecond)
	if s := stop(); len(s.ms) < 2 || s.factor() <= 0 {
		t.Errorf("after 100 ms at 1 ms: %d timings, factor %v", len(s.ms), s.factor())
	}
}
