// Package online tracks phases in a live stream of interval profiles — the
// deployment-side complement to the paper's offline k-means analysis, in
// the spirit of the real-time statistical clustering the paper relates to
// (Nickolayev et al., §VII) and of its own goal of "in-production
// observability of the performance of applications, at the phase level".
//
// The tracker is a leader-follower clusterer: each arriving interval joins
// the nearest existing phase if it is within Threshold of the phase
// centroid (which then drifts toward the sample by Alpha), otherwise it
// founds a new phase. Phase transitions are reported as they happen, giving
// a monitoring agent a live phase label per interval without storing the
// run.
package online

import (
	"math"
	"sort"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/xmath"
)

// Options tunes the tracker.
type Options struct {
	// Threshold is the maximum distance (in feature units: seconds of
	// per-function self time) at which an interval still belongs to an
	// existing phase; 0 means 0.35, consistent with the zero-value
	// defaults used across the repo. Any negative value is the sentinel
	// for an exact-match-only tracker (effective threshold 0.0): an
	// interval joins a phase only when it coincides with the centroid.
	Threshold float64
	// Alpha is the centroid's exponential drift rate toward new members;
	// 0 means 0.15.
	Alpha float64
	// MaxPhases caps phase creation; once reached, every interval joins
	// its nearest phase regardless of distance. 0 means 16.
	MaxPhases int
	// Exclude drops functions from the feature space.
	Exclude func(name string) bool
	// OnEvent, when non-nil, receives every assignment event as it is
	// produced, from Observe and from ObserveAll alike.
	OnEvent func(Event)
}

func (o Options) withDefaults() Options {
	switch {
	case o.Threshold < 0:
		// Sentinel: exact matches only.
		o.Threshold = 0
	case o.Threshold == 0:
		o.Threshold = 0.35
	}
	if o.Alpha == 0 {
		o.Alpha = 0.15
	}
	if o.MaxPhases == 0 {
		o.MaxPhases = 16
	}
	return o
}

// Event describes one observed interval.
type Event struct {
	// Interval is the observation index (0-based arrival order).
	Interval int
	// Phase is the assigned phase ID.
	Phase int
	// NewPhase reports whether this interval founded the phase.
	NewPhase bool
	// Transition reports whether the phase differs from the previous
	// interval's.
	Transition bool
	// Distance is the distance to the assigned phase's centroid before
	// it drifted.
	Distance float64
	// LowConfidence marks an interval synthesized by gap repair
	// (Profile.Repaired): its label is advisory — repaired intervals
	// neither found phases nor drift centroids, so fabricated data cannot
	// reshape the phase model.
	LowConfidence bool
}

// Tracker is the streaming phase clusterer. Observe ingests one interval and
// returns its assignment, also reporting it through Options.OnEvent; the
// streaming engine calls it once per interval, and ObserveAll is a loop over
// it. The feature space grows as new functions appear in the stream.
type Tracker struct {
	opts Options

	dims      map[string]int
	dimNames  []string    // dim index -> function name (Reseed mapping)
	centroids [][]float64 // per phase, padded lazily to current dims
	sizes     []int

	assignments []int
	lastPhase   int
}

// New creates a tracker.
func New(opts Options) *Tracker {
	return &Tracker{opts: opts.withDefaults(), dims: make(map[string]int), lastPhase: -1}
}

// dim returns the feature index for a function, growing the space on first
// sight.
func (t *Tracker) dim(fn string) int {
	if i, ok := t.dims[fn]; ok {
		return i
	}
	i := len(t.dims)
	t.dims[fn] = i
	t.dimNames = append(t.dimNames, fn)
	return i
}

// vector builds the feature vector for a profile in the current space.
func (t *Tracker) vector(p *interval.Profile) []float64 {
	// Register any new functions first so the space is stable for this
	// observation.
	names := make([]string, 0, len(p.Self))
	for fn, d := range p.Self {
		if d <= 0 {
			continue
		}
		if t.opts.Exclude != nil && t.opts.Exclude(fn) {
			continue
		}
		names = append(names, fn)
	}
	sort.Strings(names) // deterministic dimension assignment
	for _, fn := range names {
		t.dim(fn)
	}
	v := make([]float64, len(t.dims))
	for _, fn := range names {
		v[t.dims[fn]] = p.Self[fn].Seconds()
	}
	return v
}

// Observe ingests the next interval and returns its assignment event.
//
// Intervals marked Repaired (synthesized by gap repair rather than
// observed) are labeled low-confidence: they join their nearest existing
// phase without founding a new one and without drifting its centroid, so
// fabricated data cannot reshape the phase model. Only when no phase
// exists yet does a repaired interval found one (there is nothing else to
// label it with), still flagged low-confidence.
func (t *Tracker) Observe(p interval.Profile) Event {
	ev := t.observe(p)
	if t.opts.OnEvent != nil {
		t.opts.OnEvent(ev)
	}
	return ev
}

// observe labels one interval, updating the phase model.
func (t *Tracker) observe(p interval.Profile) Event {
	v := t.vector(&p)
	idx := len(t.assignments)

	best, bestDist := -1, math.Inf(1)
	for c := range t.centroids {
		// Centroids are padded lazily, so missing trailing dimensions
		// read as zero.
		if d := xmath.EuclideanPadded(t.centroids[c], v); d < bestDist {
			best, bestDist = c, d
		}
	}
	ev := Event{Interval: idx, Distance: bestDist, LowConfidence: p.Repaired}
	if p.Repaired && best != -1 {
		// Nearest join, no founding, no drift.
		t.sizes[best]++
		ev.Phase = best
		ev.Transition = best != t.lastPhase && t.lastPhase != -1
		t.lastPhase = best
		t.assignments = append(t.assignments, best)
		return record(ev)
	}
	if best == -1 || (bestDist > t.opts.Threshold && len(t.centroids) < t.opts.MaxPhases) {
		// Found a new phase at this interval.
		best = len(t.centroids)
		t.centroids = append(t.centroids, append([]float64(nil), v...))
		t.sizes = append(t.sizes, 0)
		ev.NewPhase = true
		ev.Distance = 0
	} else {
		// Drift the centroid toward the member.
		c := t.centroids[best]
		for len(c) < len(v) {
			c = append(c, 0)
		}
		for i := range v {
			c[i] += t.opts.Alpha * (v[i] - c[i])
		}
		t.centroids[best] = c
	}
	t.sizes[best]++
	ev.Phase = best
	ev.Transition = best != t.lastPhase && t.lastPhase != -1
	t.lastPhase = best
	t.assignments = append(t.assignments, best)
	return record(ev)
}

// record counts the event in the metrics registry (every call is a nil-safe
// no-op while observability is disabled) and passes it through.
func record(ev Event) Event {
	obs.C("online.intervals").Inc()
	if ev.NewPhase {
		obs.C("online.phases.founded").Inc()
	}
	if ev.Transition {
		obs.C("online.transitions").Inc()
	}
	if ev.LowConfidence {
		obs.C("online.lowconf").Inc()
	}
	return ev
}

// ObserveAll ingests a whole run and returns its events: one Observe call
// per profile, so the returned events and any Options.OnEvent handler see
// exactly what a live stream surfaces, low-confidence labels included.
func (t *Tracker) ObserveAll(profiles []interval.Profile) []Event {
	out := make([]Event, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, t.Observe(p))
	}
	return out
}

// Reseed replaces the tracker's phase model with externally-computed
// centroids — the streaming engine calls it after each authoritative
// re-cluster so live labels come from the same centroids the batch analysis
// converges to. names labels the columns of the centroid vectors by
// function; unknown functions grow the tracker's feature space, and the
// vectors are deep-copied into it, never aliased. sizes, when non-nil,
// carries the per-phase member counts of the new model (nil resets them to
// zero). Phase IDs refer to the new model after a reseed, so no transition
// is reported against a pre-reseed label.
func (t *Tracker) Reseed(names []string, centroids [][]float64, sizes []int) {
	for _, fn := range names {
		t.dim(fn)
	}
	t.centroids = make([][]float64, len(centroids))
	for c, src := range centroids {
		v := make([]float64, len(t.dims))
		for j, fn := range names {
			if j < len(src) {
				v[t.dims[fn]] = src[j]
			}
		}
		t.centroids[c] = v
	}
	t.sizes = make([]int, len(centroids))
	for c := range sizes {
		if c < len(t.sizes) {
			t.sizes[c] = sizes[c]
		}
	}
	t.lastPhase = -1
	obs.C("online.reseeds").Inc()
}

// TrackerState is the full serializable state of a Tracker: the feature
// space (dimension names in index order), the phase model, and the label
// history. A tracker restored from it labels the rest of the stream exactly
// as the exported one would have — the checkpoint/restore contract of the
// streaming engine.
type TrackerState struct {
	// DimNames lists function names in dimension-index order; it rebuilds
	// the dims map.
	DimNames    []string
	Centroids   [][]float64
	Sizes       []int
	Assignments []int
	// LastPhase is the previous interval's phase ID, -1 when none (or just
	// after a reseed).
	LastPhase int
}

// State exports the tracker's state. All slices are deep-copied.
func (t *Tracker) State() *TrackerState {
	st := &TrackerState{
		DimNames:    append([]string(nil), t.dimNames...),
		Centroids:   make([][]float64, len(t.centroids)),
		Sizes:       append([]int(nil), t.sizes...),
		Assignments: append([]int(nil), t.assignments...),
		LastPhase:   t.lastPhase,
	}
	for i, c := range t.centroids {
		st.Centroids[i] = append([]float64(nil), c...)
	}
	return st
}

// Restore replaces the tracker's state with an exported one (options are the
// tracker's own, set at New). All slices are deep-copied in.
func (t *Tracker) Restore(st *TrackerState) {
	t.dims = make(map[string]int, len(st.DimNames))
	t.dimNames = append([]string(nil), st.DimNames...)
	for i, fn := range st.DimNames {
		t.dims[fn] = i
	}
	t.centroids = make([][]float64, len(st.Centroids))
	for i, c := range st.Centroids {
		t.centroids[i] = append([]float64(nil), c...)
	}
	t.sizes = append([]int(nil), st.Sizes...)
	t.assignments = append([]int(nil), st.Assignments...)
	t.lastPhase = st.LastPhase
}

// Phases returns the number of phases founded so far.
func (t *Tracker) Phases() int { return len(t.centroids) }

// Assignments returns the per-interval phase labels so far.
func (t *Tracker) Assignments() []int {
	return append([]int(nil), t.assignments...)
}

// Sizes returns the member count per phase.
func (t *Tracker) Sizes() []int { return append([]int(nil), t.sizes...) }

// Transitions returns the interval indices at which the phase changed.
func (t *Tracker) Transitions() []int {
	var out []int
	for i := 1; i < len(t.assignments); i++ {
		if t.assignments[i] != t.assignments[i-1] {
			out = append(out, i)
		}
	}
	return out
}
