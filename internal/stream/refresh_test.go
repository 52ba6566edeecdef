package stream_test

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"github.com/incprof/incprof/internal/apps"
	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/online"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/pipeline"
	"github.com/incprof/incprof/internal/stream"
)

// phaseLabels returns each of the first n intervals' phase ID in det.
func phaseLabels(det *phase.Detection, n int) []int {
	out := make([]int, n)
	for _, p := range det.Phases {
		for _, i := range p.Intervals {
			out[i] = p.ID
		}
	}
	return out
}

// exactRefreshARI is each fixture app's live-label and mean-refresh ARI
// against the terminal model at scale 1.0, -refresh 10, measured while every
// refresh still clustered every interval.
var exactRefreshARI = map[string]struct{ live, refresh float64 }{
	"gadget":   {0.7527, 0.9720},
	"graph500": {0.5869, 0.7426},
	"lammps":   {0.6572, 0.9944},
	"miniamr":  {0.6322, 0.9001},
	"minife":   {0.7409, 0.9838},
}

// Bounded refreshes must not cost live quality: on every fixture app the
// live labels agree with the terminal model within 0.05 ARI of the exact
// refreshes' agreement, and the refreshes' own labels, averaged over the
// run, within 0.01.
func TestLiveLabelAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("collects every fixture app at full scale")
	}
	for _, name := range apps.Names() {
		t.Run(name, func(t *testing.T) {
			floor, ok := exactRefreshARI[name]
			if !ok {
				t.Fatalf("no exact-refresh ARI recorded for %s", name)
			}
			app, err := apps.New(name, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			var live []int
			var refreshes []stream.Refresh
			eng := stream.New(stream.Options{
				Phase:        baseOpts(),
				RefreshEvery: 10,
				OnLabel:      func(ev online.Event) { live = append(live, ev.Phase) },
				OnRefresh: func(r stream.Refresh) {
					if !r.Final {
						refreshes = append(refreshes, r)
					}
				},
			})
			for _, s := range res.Snapshots[0] {
				if err := eng.Emit(s); err != nil {
					t.Fatal(err)
				}
			}
			r, err := eng.Finish()
			if err != nil {
				t.Fatal(err)
			}
			final := phaseLabels(r.Detection, len(r.Profiles))
			liveARI := cluster.AdjustedRandIndex(live, final)
			var sum float64
			for _, rf := range refreshes {
				n := rf.Intervals
				sum += cluster.AdjustedRandIndex(modelLabels(rf.Model, interval.Profiles(r.Profiles[:n]), baseOpts()), final[:n])
			}
			refreshARI := sum / float64(len(refreshes))
			t.Logf("%d intervals: live-label ARI %.4f (exact %.4f), mean-refresh ARI %.4f (exact %.4f)",
				len(r.Profiles), liveARI, floor.live, refreshARI, floor.refresh)
			if liveARI < floor.live-0.05 {
				t.Errorf("live-label ARI %.4f below %.4f - 0.05", liveARI, floor.live)
			}
			if refreshARI < floor.refresh-0.01 {
				t.Errorf("mean-refresh ARI %.4f below %.4f - 0.01", refreshARI, floor.refresh)
			}
		})
	}
}

// No intermediate refresh over a 2,000-interval stream clusters more than
// 384 rows: the engine reports the bound, each refresh's model was fitted
// on that many rows, and every k sweep the trace records under a
// stream.refresh span ran on at most 384 points.
func TestRefreshRowBudget(t *testing.T) {
	obs.Enable(obs.Config{Seed: 1})
	defer obs.Disable()
	if !obs.Enabled() {
		t.Skip("built with -tags obs_off")
	}
	root := obs.Start("test")
	const n, every = 2000, 100
	refreshes := 0
	eng := stream.New(stream.Options{
		Phase:        baseOpts(),
		RefreshEvery: every,
		OnLabel:      func(online.Event) {},
		Span:         root,
		OnRefresh: func(r stream.Refresh) {
			if !r.Final && len(r.Model.Assign) != r.Clustered {
				t.Fatalf("refresh %d's model was fitted on %d rows, reported %d", r.Index, len(r.Model.Assign), r.Clustered)
			}
			want := min(r.Intervals, 384)
			if r.Final {
				want = r.Intervals
			}
			if r.Clustered != want {
				t.Fatalf("refresh %d (final=%v) over %d intervals clustered %d rows, want %d",
					r.Index, r.Final, r.Intervals, r.Clustered, want)
			}
			if !r.Final {
				refreshes++
			}
		},
	})
	for _, s := range phaseSnaps(n + 1) {
		if err := eng.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	root.End()
	if refreshes != n/every {
		t.Fatalf("%d intermediate refreshes, want %d", refreshes, n/every)
	}

	type span struct {
		Name     string      `json:"name"`
		Attrs    [][2]string `json:"attrs"`
		Children []span      `json:"children"`
	}
	var trace struct{ Spans []span }
	var b bytes.Buffer
	if err := obs.WriteTraceJSON(&b, obs.ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	sweeps := 0
	var walk func(s span, inRefresh bool)
	walk = func(s span, inRefresh bool) {
		inRefresh = inRefresh || s.Name == "stream.refresh"
		if inRefresh && s.Name == "cluster.sweep" {
			sweeps++
			for _, a := range s.Attrs {
				if p, _ := strconv.Atoi(a[1]); a[0] == "points" && p > 384 {
					t.Errorf("a refresh sweep ran on %d points", p)
				}
			}
		}
		for _, c := range s.Children {
			walk(c, inRefresh)
		}
	}
	for _, s := range trace.Spans {
		walk(s, false)
	}
	if sweeps != refreshes {
		t.Fatalf("trace holds %d refresh sweeps, want %d", sweeps, refreshes)
	}
}
