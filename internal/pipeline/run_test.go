package pipeline

import (
	"errors"
	"reflect"
	"testing"

	"github.com/incprof/incprof/internal/checkpoint"
	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/online"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

// summary is the part of a result every stack must agree on.
type summary struct {
	K         int
	WCSS      []float64
	Intervals [][]int
	Sites     [][]string
	Profiles  int
}

func summarize(t *testing.T, r *RunResult) summary {
	t.Helper()
	s := summary{K: r.Detection.K, WCSS: r.Detection.WCSS, Profiles: len(r.Profiles)}
	for _, p := range r.Detection.Phases {
		s.Intervals = append(s.Intervals, p.Intervals)
		var sites []string
		for _, site := range p.Sites {
			sites = append(sites, site.Function)
		}
		s.Sites = append(s.Sites, sites)
	}
	return s
}

// TestRunStacksAgree runs one collection through the bare engine, through
// the full live stack (live callbacks and refreshes, the checkpoint layer,
// a two-slot admission queue), and through a resume of that stack's state:
// all three end on the same detection, and the resume replays its WAL
// without firing a callback.
func TestRunStacksAgree(t *testing.T) {
	app := mustApp(t, "minife", 0.2)
	res, err := Collect(app, CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	snaps := res.Snapshots[0]
	eopts := stream.Options{Phase: phase.Options{Cluster: cluster.Options{Seed: 3}}}
	bare, err := Run(snapshots(snaps), RunOptions{Engine: eopts})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Fed.Emitted != len(snaps) || bare.Fed.Last != snaps[len(snaps)-1] {
		t.Fatalf("source fed %d dumps, last %p; want %d, %p", bare.Fed.Emitted, bare.Fed.Last, len(snaps), snaps[len(snaps)-1])
	}
	want := summarize(t, bare)

	labels := 0
	live := eopts
	live.RefreshEvery = 4
	live.OnLabel = func(online.Event) { labels++ }
	durable := &Durable{Dir: t.TempDir(), Every: 7, NoSync: true}
	drained := false
	layered, err := Run(snapshots(snaps), RunOptions{
		Engine:    live,
		Durable:   durable,
		Admission: &stream.AdmissionOptions{MaxPending: 2},
		OnDrained: func(_ incprof.TailResult, shed int) { drained = shed == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := summarize(t, layered); !reflect.DeepEqual(got, want) {
		t.Fatalf("layered stack:\n got  %+v\n want %+v", got, want)
	}
	if labels != len(snaps) || !drained {
		t.Fatalf("live stack saw %d labels (want %d), drained %v", labels, len(snaps), drained)
	}

	labels = 0
	replayed := -1
	durable.Resume = true
	durable.OnRecover = func(_ *checkpoint.Recovery, n int) { replayed = n }
	resumed, err := Run(snapshots(snaps), RunOptions{Engine: live, Durable: durable})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Fed.Emitted != 0 {
		t.Fatalf("resume re-fed %d dumps the state already held", resumed.Fed.Emitted)
	}
	if len(snaps)%7 == 0 {
		t.Fatalf("%d dumps leave no WAL tail past the last snapshot to replay", len(snaps))
	}
	if replayed != len(snaps)%7 || labels != 0 {
		t.Fatalf("resume replayed %d WAL records with %d labels, want %d and none", replayed, labels, len(snaps)%7)
	}
	if got := summarize(t, resumed); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed stack:\n got  %+v\n want %+v", got, want)
	}
}

func TestRunWithNothingToAnalyze(t *testing.T) {
	_, err := Run(snapshots(nil), RunOptions{})
	if !errors.Is(err, ErrNoSnapshots) {
		t.Fatalf("err = %v, want ErrNoSnapshots", err)
	}
}

// TestRunRecordsShedDumps sheds under a one-slot drop-oldest queue: the
// caller's OnShed sees every shed dump, and a durable run has recorded each
// one, so a resume feeds none of them again.
func TestRunRecordsShedDumps(t *testing.T) {
	app := mustApp(t, "minife", 0.2)
	res, err := Collect(app, CollectOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	snaps := res.Snapshots[0]
	// A fresh state dir has seen nothing, so the source need not ask: the
	// producer then never waits on the runner's lock and outruns the
	// consumer, which writes the WAL and updates the engine for each dump.
	fresh := func(sink incprof.Sink, _ func(int) bool) (incprof.TailResult, error) {
		return snapshots(snaps)(sink, nil)
	}
	var hooked []int
	drained := -1
	durable := &Durable{Dir: t.TempDir(), Every: 7, NoSync: true}
	eopts := stream.Options{Robust: true, Phase: phase.Options{Cluster: cluster.Options{Seed: 3}}}
	_, err = Run(fresh, RunOptions{
		Engine:  eopts,
		Durable: durable,
		Admission: &stream.AdmissionOptions{MaxPending: 1, Policy: stream.ShedDropOldest, OnShed: func(s *profile.Sample) {
			hooked = append(hooked, s.Seq)
		}},
		OnDrained: func(_ incprof.TailResult, shed int) { drained = shed },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hooked) == 0 || drained != len(hooked) {
		t.Fatalf("OnShed saw %v, queue reported %d shed; want at least one, and the same count", hooked, drained)
	}
	durable.Resume = true
	resumed, err := Run(snapshots(snaps), RunOptions{Engine: eopts, Durable: durable})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Fed.Emitted != 0 {
		t.Fatalf("resume re-fed %d dumps; shed seqs %v were not recorded", resumed.Fed.Emitted, hooked)
	}
}

// recorder is a source's sink that keeps the Seqs it is fed and fails on
// failAt, if set.
type recorder struct {
	seqs   []int
	failAt int
}

func (r *recorder) Emit(s *profile.Sample) error {
	if r.failAt > 0 && s.Seq == r.failAt {
		return errors.New("boom")
	}
	r.seqs = append(r.seqs, s.Seq)
	return nil
}

func seqSnaps(n int) []*profile.Sample {
	snaps := make([]*profile.Sample, n)
	for i := range snaps {
		snaps[i] = &profile.Sample{Seq: i}
	}
	return snaps
}

func TestSnapshotsFeedsUnseenInOrder(t *testing.T) {
	snaps := seqSnaps(5)
	var r recorder
	fed, err := snapshots(snaps)(&r, func(seq int) bool { return seq == 1 || seq == 3 })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.seqs, []int{0, 2, 4}) || fed.Emitted != 3 || fed.Last != snaps[4] {
		t.Fatalf("fed %v, result %+v; want seqs [0 2 4] ending at the last", r.seqs, fed)
	}
}

func TestSnapshotsStopsOnEmitError(t *testing.T) {
	snaps := seqSnaps(5)
	r := recorder{failAt: 2}
	fed, err := snapshots(snaps)(&r, nil)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if !reflect.DeepEqual(r.seqs, []int{0, 1}) || fed.Emitted != 2 || fed.Last != snaps[1] {
		t.Fatalf("fed %v, result %+v; want seqs [0 1] and nothing after the error", r.seqs, fed)
	}
}
