package main

import (
	"os/exec"
	"runtime"
	"testing"
)

// A launched process's peak RSS is its own, not the benchmark's: the
// benchmark holds 64 MiB while it runs a process that needs a few.
func TestLaunchedPeakRSSIsTheChilds(t *testing.T) {
	bin, err := exec.LookPath("true")
	if err != nil {
		t.Skip("no true command:", err)
	}
	held := make([]byte, 64<<20)
	for i := range held {
		held[i] = byte(i)
	}
	r, err := runCLI(bin, nil, nil)
	runtime.KeepAlive(held)
	if err != nil {
		t.Fatal(err)
	}
	if r.usage.MaxRSS <= 0 || r.usage.MaxRSS > 32<<20 || r.wall() <= 0 {
		t.Errorf("usage %+v: want a peak RSS of a few MiB and a positive wall time", r.usage)
	}
}

// A non-zero exit is an error, with the output up to it.
func TestLaunchedFailure(t *testing.T) {
	bin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false command:", err)
	}
	if _, err := runCLI(bin, nil, nil); err == nil {
		t.Error("a failing command ran without error")
	}
	if _, err := runCLI("/nonexistent/phasedetect", nil, nil); err == nil {
		t.Error("a missing binary ran without error")
	}
}
