package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	_ "github.com/incprof/incprof/internal/gmon" // register the gmon frontend
	"github.com/incprof/incprof/internal/incprof"
	_ "github.com/incprof/incprof/internal/pprof" // register the pprof frontend
	"github.com/incprof/incprof/internal/profile"
)

// corpusSpec describes one phase-structured dump corpus. The generator lays
// out a schedule of recurring phases, gives each phase a set of active
// functions with fixed relative weights, draws each interval's profiling
// samples from its phase's weights, and accumulates them into cumulative
// dumps exactly as a profiler dumping once per interval would.
type corpusSpec struct {
	Format    string  // registered profile.Format name: "gmon" or "pprof"
	Dumps     int     // dumps (= intervals) in the run
	Namespace int     // distinct symbol names a phase can draw from
	Phases    int     // recurring phases
	Shared    int     // functions active in every phase (part of Active)
	Active    int     // functions active per phase
	MinRun    int     // shortest phase segment, in intervals
	MaxRun    int     // longest phase segment, in intervals
	Samples   int     // profiling samples drawn per interval
	Skew      float64 // how unequal a phase's function weights are (Zipf exponent)
	Jitter    float64 // per-interval log-normal spread of each weight
	Symbol    func(i int) string
}

// corpus is a generated run: its cumulative dumps and the ground truth.
type corpus struct {
	Spec  corpusSpec
	Dumps []*profile.Sample // cumulative, in Seq order
	Truth []int             // generating phase of every interval
	Dims  int               // functions sampled in at least one interval
}

const samplePeriod = 10 * time.Millisecond

// generate builds the corpus for spec; the same seed always yields the same
// dumps and truth.
func generate(spec corpusSpec, seed uint64) *corpus {
	rng := rand.New(rand.NewPCG(seed, 0x1c9f0f))
	names := make([]string, spec.Namespace)
	for i := range names {
		names[i] = spec.Symbol(i)
	}

	// Phase models. Phase p runs the shared core plus its own window of
	// Active-Shared functions from the rest of the name space: the windows
	// are disjoint when the name space allows and overlap evenly when it does
	// not, so every seed gives the same feature dimensions and the same
	// overlap between phases. The seed picks which names land where, each
	// function's Zipf rank (Skew sets how unequal the weights are), and the
	// calls-per-sample ratio Algorithm 1 sorts by.
	perm := rng.Perm(spec.Namespace)
	core, rest := perm[:spec.Shared], perm[spec.Shared:]
	own := spec.Active - spec.Shared
	step := max(len(rest)/spec.Phases, 1)
	type model struct {
		funcs  []int
		weight []float64
		calls  []int64
	}
	models := make([]model, spec.Phases)
	for p := range models {
		m := model{funcs: append([]int(nil), core...)}
		for j := 0; j < own; j++ {
			m.funcs = append(m.funcs, rest[(p*step+j)%len(rest)])
		}
		// The phase's own functions take the top ranks and the shared core
		// the rest: a phase is told apart by what it runs, not by the
		// background every phase shares.
		var rank []int // parallel to m.funcs: the core, then the phase's own
		for _, r := range rng.Perm(spec.Shared) {
			rank = append(rank, own+r)
		}
		for _, r := range append(rank, rng.Perm(own)...) {
			m.weight = append(m.weight, 1/math.Pow(float64(r+1), spec.Skew))
			m.calls = append(m.calls, 1+rng.Int64N(50))
		}
		models[p] = m
	}

	// Schedule: rounds in which every phase runs once, in a seeded order.
	// The segment lengths, evenly spaced from MinRun to MaxRun, come in the
	// same shuffled order every round and for every seed, so every seed's run
	// has the same shape and does the same amount of work: how many
	// functions a cumulative dump lists depends on how soon each phase first
	// runs.
	c := &corpus{Spec: spec, Truth: make([]int, 0, spec.Dumps)}
	lengths := rand.New(rand.NewPCG(0, 0x1c9f0f)).Perm(spec.Phases)
	prev := -1
	for len(c.Truth) < spec.Dumps {
		order := rng.Perm(spec.Phases)
		if order[0] == prev {
			order[0], order[1] = order[1], order[0]
		}
		for i, p := range order {
			n := spec.MinRun + (spec.MaxRun-spec.MinRun)*lengths[i]/(spec.Phases-1)
			for j := 0; j < n && len(c.Truth) < spec.Dumps; j++ {
				c.Truth = append(c.Truth, p)
			}
			prev = p
		}
	}

	cum := make([]profile.FuncRecord, spec.Namespace)
	seen := make([]bool, spec.Namespace)
	var live []int // sampled functions, kept sorted by name
	counts := make([]int64, spec.Active)
	cdf := make([]float64, spec.Active)
	for i, p := range c.Truth {
		m := &models[p]
		total := 0.0
		for j, w := range m.weight {
			total += w * math.Exp(spec.Jitter*rng.NormFloat64())
			cdf[j] = total
		}
		clear(counts)
		for s := 0; s < spec.Samples; s++ {
			counts[sort.SearchFloat64s(cdf, rng.Float64()*total)]++
		}
		for j, n := range counts {
			if n == 0 {
				continue
			}
			f := m.funcs[j]
			if !seen[f] {
				seen[f] = true
				cum[f].Name = names[f]
				at := sort.Search(len(live), func(k int) bool { return names[live[k]] >= names[f] })
				live = append(live, 0)
				copy(live[at+1:], live[at:])
				live[at] = f
			}
			cum[f].Samples += n
			cum[f].SelfTime += time.Duration(n)*samplePeriod + time.Duration(rng.Int64N(int64(samplePeriod)))
			cum[f].Calls += n * m.calls[j]
		}
		d := &profile.Sample{
			Seq:          i,
			Timestamp:    time.Duration(i+1) * time.Second,
			SamplePeriod: samplePeriod,
			Funcs:        make([]profile.FuncRecord, len(live)),
		}
		for k, f := range live {
			d.Funcs[k] = cum[f]
		}
		c.Dumps = append(c.Dumps, d)
	}
	c.Dims = len(live)
	return c
}

// format returns the corpus's registered frontend.
func (c *corpus) format() *profile.Format {
	f, ok := profile.Lookup(c.Spec.Format)
	if !ok {
		panic(fmt.Sprintf("bench: format %q is not registered", c.Spec.Format))
	}
	return f
}

// write files dumps [from, to) into dir through the program's own dump
// store, as a collector would.
func (c *corpus) write(dir string, from, to int) error {
	st, err := incprof.NewFormatDirStore(dir, c.format())
	if err != nil {
		return err
	}
	for _, d := range c.Dumps[from:to] {
		if err := st.Put(d); err != nil {
			return fmt.Errorf("writing dump %d: %w", d.Seq, err)
		}
	}
	return nil
}
