package phase

import (
	"testing"

	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/interval"
)

func TestMergeDuplicatePhasesCombinesSameSiteSets(t *testing.T) {
	// LAMMPS-shaped: compute intervals in two clusters separated by
	// build bursts, both selecting the same compute loop site.
	var profs []interval.Profile
	for i := 0; i < 10; i++ {
		profs = append(profs, mkProfile(i, "compute", 1.0, 0))
	}
	for i := 10; i < 13; i++ {
		profs = append(profs, mkProfile(i, "build", 1.0, 1))
	}
	for i := 13; i < 23; i++ {
		profs = append(profs, mkProfile(i, "compute", 1.0, 0))
	}
	det, err := Detect(profs, Options{Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Force a duplicate situation if clustering merged them already:
	// split the compute phase manually to exercise the merge.
	if len(det.Phases) == 2 {
		var computePhase Phase
		for _, p := range det.Phases {
			if p.Sites[0].Function == "compute" {
				computePhase = p
			}
		}
		first := computePhase
		second := computePhase
		first.Intervals = computePhase.Intervals[:10]
		second.Intervals = computePhase.Intervals[10:]
		second.ID = len(det.Phases)
		var rebuilt []Phase
		for _, p := range det.Phases {
			if p.Sites[0].Function == "compute" {
				rebuilt = append(rebuilt, first)
			} else {
				rebuilt = append(rebuilt, p)
			}
		}
		det.Phases = append(rebuilt, second)
	}
	before := len(det.Phases)
	removed := det.MergeDuplicatePhases()
	if removed == 0 {
		t.Fatalf("nothing merged from %d phases", before)
	}
	if got := len(det.Phases); got != before-removed {
		t.Fatalf("phases = %d, want %d", got, before-removed)
	}
	// The merged compute phase holds all 20 compute intervals with 100%
	// coverage.
	for _, p := range det.Phases {
		if p.Sites[0].Function == "compute" {
			if len(p.Intervals) != 20 {
				t.Fatalf("merged intervals = %d, want 20", len(p.Intervals))
			}
			if p.Sites[0].PhasePct != 100 {
				t.Fatalf("recomputed PhasePct = %v", p.Sites[0].PhasePct)
			}
			if p.Sites[0].AppPct < 86 || p.Sites[0].AppPct > 88 { // 20/23
				t.Fatalf("recomputed AppPct = %v", p.Sites[0].AppPct)
			}
		}
	}
	// IDs renumbered by first occurrence.
	for i, p := range det.Phases {
		if p.ID != i {
			t.Fatalf("IDs not renumbered: %+v", det.Phases)
		}
	}
}

func TestMergeDifferentSitesUntouched(t *testing.T) {
	profs := twoPhaseWorkload()
	det, err := Detect(profs, Options{Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	before := len(det.Phases)
	if removed := det.MergeDuplicatePhases(); removed != 0 {
		t.Fatalf("merged %d distinct phases", removed)
	}
	if len(det.Phases) != before {
		t.Fatal("phase count changed")
	}
}

func TestMergeEmptySiteSetsNeverMerge(t *testing.T) {
	det := &Detection{
		Profiles: rowsOf(twoPhaseWorkload()),
		Phases: []Phase{
			{ID: 0, Intervals: []int{0}},
			{ID: 1, Intervals: []int{1}},
		},
	}
	if removed := det.MergeDuplicatePhases(); removed != 0 {
		t.Fatal("siteless phases merged")
	}
}

func TestMergeSinglePhaseNoop(t *testing.T) {
	det := &Detection{Phases: []Phase{{ID: 0}}}
	if det.MergeDuplicatePhases() != 0 {
		t.Fatal("single phase merged with itself")
	}
}
