// labels.go is the live labeller: each interval's phase label comes from
// the last intermediate refresh's model, read off the row the matrix
// builder already stores for the interval. The candidates are the model's
// clusters, numbered by first occurrence among the rows the model was
// fitted on (the order phase.BuildPhases numbers phases in), followed by
// the provisional phases founded since that refresh. An interval takes the
// nearest candidate's ID. One farther than newPhaseDist from every
// candidate founds a provisional phase at its own row while there are
// fewer than maxLivePhases candidates; the next refresh drops them. Before
// the first refresh there is no model, so intervals only found and join
// provisional phases.
package stream

import (
	"math"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/online"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/xmath"
)

const (
	// newPhaseDist is the distance, in feature units (seconds of self time
	// under the time feature kinds), beyond which an interval founds a
	// provisional phase.
	newPhaseDist = 0.35
	// maxLivePhases caps the candidates, model clusters included.
	maxLivePhases = 16
)

// labeller holds the live candidates as dense centroids over the feature
// columns funcs names. A column that joins the matrix later reads as zero
// in them: sync widens them when the builder has grown.
type labeller struct {
	funcs []string
	cents [][]float64 // the model's clusters in phase-ID order, then the provisional phases
	k     int         // how many of cents are the model's
	prev  int         // the previous interval's label; -1 when none, as just after a refresh
}

// reset makes md, fitted over the columns funcs names, the live model and
// drops the provisional phases. The centroid vectors are shared with md,
// never written: sync and founding make new ones.
func (l *labeller) reset(md *phase.Model, funcs []string) {
	order := phaseOrder(md)
	l.funcs = funcs
	l.cents = make([][]float64, len(order))
	for id, c := range order {
		l.cents[id] = md.Centroids[c]
	}
	l.k = len(order)
	l.prev = -1
}

// phaseOrder lists md's clusters by first occurrence among the rows md was
// fitted on; a cluster no fitted row carries comes last, in cluster order.
func phaseOrder(md *phase.Model) []int {
	seen := make([]bool, len(md.Centroids))
	order := make([]int, 0, len(seen))
	for _, c := range md.Assign {
		if c >= 0 && !seen[c] { // DBSCAN noise carries no cluster
			seen[c] = true
			order = append(order, c)
		}
	}
	for c, ok := range seen {
		if !ok {
			order = append(order, c)
		}
	}
	return order
}

// sync widens the centroids to the builder's columns when a function has
// become a dimension since they were stored. Dimensions only ever join, so
// an equal count means the same columns.
func (l *labeller) sync(b *interval.MatrixBuilder) {
	if len(l.funcs) == b.Dims() {
		return
	}
	funcs := b.FuncNames()
	col := make(map[string]int, len(funcs))
	for j, fn := range funcs {
		col[fn] = j
	}
	for i, c := range l.cents {
		w := make([]float64, len(funcs))
		for j, v := range c {
			w[col[l.funcs[j]]] = v
		}
		l.cents[i] = w
	}
	l.funcs = funcs
}

// label labels row i of b, the newest. A repaired interval joins its
// nearest candidate without founding one, unless there is none; it carries
// LowConfidence.
func (l *labeller) label(b *interval.MatrixBuilder, i int, repaired bool) online.Event {
	l.sync(b)
	vals, cols := b.Row(i)
	best, bestD := -1, math.Inf(1)
	for c, cent := range l.cents {
		if d := xmath.SquaredEuclideanPackedDense(vals, cols, cent); d < bestD {
			best, bestD = c, d
		}
	}
	ev := online.Event{Interval: i, LowConfidence: repaired}
	if d := math.Sqrt(bestD); best == -1 || (!repaired && d > newPhaseDist && len(l.cents) < maxLivePhases) {
		row := make([]float64, len(l.funcs))
		for t, c := range cols {
			row[c] = vals[t]
		}
		best = len(l.cents)
		l.cents = append(l.cents, row)
		ev.NewPhase = true
	} else {
		ev.Distance = d
	}
	ev.Phase = best
	ev.Transition = l.prev != -1 && best != l.prev
	l.prev = best
	record(ev)
	return ev
}

// record counts the label in the metrics registry; every call is a
// nil-safe no-op while observability is disabled.
func record(ev online.Event) {
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
}
