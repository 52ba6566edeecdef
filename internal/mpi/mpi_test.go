package mpi

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/profiler"
	"github.com/incprof/incprof/internal/vclock"
)

func TestBarrierSynchronizesClocks(t *testing.T) {
	var mu sync.Mutex
	after := make([]vclock.Time, 4)
	err := Run(Config{Size: 4}, nil, func(r *Rank) {
		work := r.Runtime().Register("work")
		// Rank i works i seconds, so the barrier release time is 3s.
		r.Runtime().Call(work, func() {
			r.Runtime().Work(time.Duration(r.ID()) * time.Second)
		})
		r.Barrier()
		mu.Lock()
		after[r.ID()] = r.Runtime().Now()
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, ts := range after {
		if ts != vclock.Time(3*time.Second) {
			t.Fatalf("rank %d at %v after barrier, want 3s", id, ts)
		}
	}
}

func TestBarrierWaitChargedToMPIBarrier(t *testing.T) {
	var mu sync.Mutex
	waits := make([]time.Duration, 2)
	err := Run(Config{Size: 2}, nil, func(r *Rank) {
		p := profiler.New(r.Runtime(), time.Millisecond)
		work := r.Runtime().Register("work")
		r.Runtime().Call(work, func() {
			if r.ID() == 0 {
				r.Runtime().Work(2 * time.Second)
			}
		})
		r.Barrier()
		fn, _ := r.Runtime().Lookup(FuncBarrier)
		mu.Lock()
		waits[r.ID()] = p.SelfTime(fn)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if waits[0] != 0 {
		t.Fatalf("busy rank charged %v of barrier wait", waits[0])
	}
	if waits[1] != 2*time.Second {
		t.Fatalf("idle rank charged %v, want 2s", waits[1])
	}
}

func TestAllreduceSum(t *testing.T) {
	var mu sync.Mutex
	results := make([][]float64, 3)
	err := Run(Config{Size: 3}, nil, func(r *Rank) {
		got := r.Allreduce(Sum, []float64{float64(r.ID()), 1})
		mu.Lock()
		results[r.ID()] = got
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, res := range results {
		if len(res) != 2 || res[0] != 3 || res[1] != 3 {
			t.Fatalf("rank %d allreduce = %v, want [3 3]", id, res)
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	err := Run(Config{Size: 4}, nil, func(r *Rank) {
		mx := r.Allreduce(Max, []float64{float64(r.ID())})
		if mx[0] != 3 {
			panic("max wrong")
		}
		mn := r.Allreduce(Min, []float64{float64(r.ID())})
		if mn[0] != 0 {
			panic("min wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	err := Run(Config{Size: 4}, nil, func(r *Rank) {
		var send []float64
		if r.ID() == 2 {
			send = []float64{42, 7}
		}
		got := r.Bcast(2, send)
		if len(got) != 2 || got[0] != 42 || got[1] != 7 {
			panic("bcast wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRingExchange(t *testing.T) {
	err := Run(Config{Size: 5}, nil, func(r *Rank) {
		got := r.RingExchange([]float64{float64(r.ID())})
		want := float64((r.ID() - 1 + 5) % 5)
		if got[0] != want {
			panic("ring exchange wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The simulated network is instantaneous: a collective among ranks whose
// clocks already agree moves no clock, so only waiting for a slower rank
// costs virtual time.
func TestCollectivesAreInstantaneous(t *testing.T) {
	err := Run(Config{Size: 3}, nil, func(r *Rank) {
		before := r.Runtime().Now()
		r.Barrier()
		r.Allreduce(Sum, make([]float64, 1000))
		r.Bcast(1, make([]float64, 1000))
		r.RingExchange(make([]float64, 1000))
		if now := r.Runtime().Now(); now != before {
			panic(fmt.Sprintf("rank %d clock moved from %v to %v", r.ID(), before, now))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleRank(t *testing.T) {
	err := Run(Config{Size: 1}, nil, func(r *Rank) {
		r.Barrier()
		got := r.Allreduce(Sum, []float64{5})
		if got[0] != 5 {
			panic("single-rank allreduce")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if err := Run(Config{Size: 0}, nil, func(*Rank) {}); err == nil {
		t.Fatal("accepted size 0")
	}
}

func TestPanicInOneRankAbortsAll(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- Run(Config{Size: 3}, nil, func(r *Rank) {
			if r.ID() == 1 {
				panic("rank 1 fails")
			}
			r.Barrier() // would deadlock without abort propagation
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "rank 1") {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run deadlocked after rank panic")
	}
}

func TestSetupRunsBeforeBody(t *testing.T) {
	var mu sync.Mutex
	order := map[int][]string{}
	err := Run(Config{Size: 2}, func(r *Rank) {
		mu.Lock()
		order[r.ID()] = append(order[r.ID()], "setup")
		mu.Unlock()
	}, func(r *Rank) {
		mu.Lock()
		order[r.ID()] = append(order[r.ID()], "body")
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, ev := range order {
		if len(ev) != 2 || ev[0] != "setup" || ev[1] != "body" {
			t.Fatalf("rank %d order = %v", id, ev)
		}
	}
}

func TestIsMPIFunc(t *testing.T) {
	for _, n := range []string{FuncBarrier, FuncAllreduce, FuncBcast, FuncSendRecv} {
		if !IsMPIFunc(n) {
			t.Fatalf("IsMPIFunc(%q) = false", n)
		}
	}
	if IsMPIFunc("compute") {
		t.Fatal("IsMPIFunc(compute) = true")
	}
}

func TestManyIterationsRemainSymmetric(t *testing.T) {
	// A CG-style loop: compute + two allreduces per iteration; all ranks
	// must stay in lockstep in virtual time.
	err := Run(Config{Size: 4}, nil, func(r *Rank) {
		work := r.Runtime().Register("work")
		for it := 0; it < 50; it++ {
			r.Runtime().Call(work, func() {
				r.Runtime().Work(time.Duration(1+r.ID()) * time.Millisecond)
			})
			dot := r.Allreduce(Sum, []float64{1})
			if dot[0] != 4 {
				panic("dot wrong")
			}
			r.Allreduce(Max, []float64{math.Inf(-1)})
		}
		// Slowest rank works 4ms/iter, so every rank ends at 200ms.
		if r.Runtime().Now() != vclock.Time(200*time.Millisecond) {
			panic("clocks diverged")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBarrier4Ranks(b *testing.B) {
	err := Run(Config{Size: 4}, nil, func(r *Rank) {
		for i := 0; i < b.N; i++ {
			r.Barrier()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAllreduce4Ranks(b *testing.B) {
	vals := make([]float64, 16)
	err := Run(Config{Size: 4}, nil, func(r *Rank) {
		for i := 0; i < b.N; i++ {
			r.Allreduce(Sum, vals)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
