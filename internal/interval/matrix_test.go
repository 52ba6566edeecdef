package interval

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// growthProfiles builds a run whose feature space grows mid-stream: "init"
// is active from the start, "solve" first appears at interval 4, "io" at
// interval 8. Earlier rows must read as zero in the late dimensions.
func growthProfiles(n int) []Profile {
	out := make([]Profile, n)
	for i := range out {
		p := Profile{
			Index:     i,
			Start:     time.Duration(i) * time.Second,
			End:       time.Duration(i+1) * time.Second,
			Self:      map[string]time.Duration{"init": time.Duration(100+i) * time.Millisecond},
			ExactSelf: map[string]time.Duration{"init": time.Duration(90+i) * time.Millisecond},
			Calls:     map[string]int64{"init": int64(i + 1)},
		}
		if i >= 4 {
			p.Self["solve"] = time.Duration(200+i) * time.Millisecond
			p.ExactSelf["solve"] = time.Duration(180+i) * time.Millisecond
			p.Calls["solve"] = int64(2 * i)
		}
		if i >= 8 {
			p.Self["io"] = time.Duration(30) * time.Millisecond
			p.ExactSelf["io"] = time.Duration(25) * time.Millisecond
			p.Calls["io"] = 3
		}
		// An excluded function active throughout must never become a
		// dimension.
		p.Self["MPI_Allreduce"] = 50 * time.Millisecond
		p.ExactSelf["MPI_Allreduce"] = 50 * time.Millisecond
		p.Calls["MPI_Allreduce"] = 7
		out[i] = p
	}
	return out
}

func exclude(fn string) bool { return strings.HasPrefix(fn, "MPI_") }

// naiveFeatures is the reference the builder is checked against, computed
// straight from the profiles in dense form: a function is a dimension when it
// has a positive feature value (or, under SelfPlusCalls, a positive call
// count) in some interval and is not excluded; columns are name-sorted, call
// columns follow the time columns, and every cell holds the interval's raw
// value for that function.
func naiveFeatures(profiles []Profile, opts FeatureOptions) ([]string, [][]float64) {
	pick := func(p *Profile) map[string]time.Duration {
		if opts.Kind == ExactSelf {
			return p.ExactSelf
		}
		return p.Self
	}
	keep := func(fn string) bool { return opts.Exclude == nil || !opts.Exclude(fn) }
	seen := map[string]bool{}
	for i := range profiles {
		for fn, d := range pick(&profiles[i]) {
			if d > 0 && keep(fn) {
				seen[fn] = true
			}
		}
		if opts.Kind == SelfPlusCalls {
			for fn, n := range profiles[i].Calls {
				if n > 0 && keep(fn) {
					seen[fn] = true
				}
			}
		}
	}
	names := make([]string, 0, len(seen))
	for fn := range seen {
		names = append(names, fn)
	}
	sort.Strings(names)
	cols := append([]string(nil), names...)
	if opts.Kind == SelfPlusCalls {
		for _, fn := range names {
			cols = append(cols, "#calls:"+fn)
		}
	}
	rows := make([][]float64, len(profiles))
	for i := range profiles {
		row := make([]float64, len(cols))
		for j, fn := range names {
			row[j] = pick(&profiles[i])[fn].Seconds()
			if opts.Kind == SelfPlusCalls {
				row[len(names)+j] = float64(profiles[i].Calls[fn])
			}
		}
		rows[i] = row
	}
	return cols, rows
}

// The satellite contract: a builder fed one profile at a time produces the
// naive reference matrix — zero backfill included — and a Matrix identical
// to a batch FeaturesCSR call, for every feature kind. Subtests run in
// parallel so `go test -race` and different -parallel values exercise
// concurrent builders over shared profile data.
func TestBuilderMatchesBatchUnderDimensionGrowth(t *testing.T) {
	profiles := growthProfiles(12)
	for _, kind := range []FeatureKind{SampledSelf, ExactSelf, SelfPlusCalls} {
		kind := kind
		t.Run(fmt.Sprintf("kind=%d", kind), func(t *testing.T) {
			t.Parallel()
			opts := FeatureOptions{Kind: kind, Exclude: exclude}
			b := NewMatrixBuilder(opts)
			for i := range profiles {
				b.Add(&profiles[i])
			}
			got := b.CSRMatrix()
			if want := FeaturesCSR(profiles, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("incremental matrix diverges from batch\n got %+v\nwant %+v", got, want)
			}
			names, rows := naiveFeatures(profiles, opts)
			dense := got.Sparse.Dense()
			if !reflect.DeepEqual(got.FuncNames, names) || !reflect.DeepEqual(dense, rows) {
				t.Fatalf("matrix diverges from the naive reference\n got %v %v\nwant %v %v", got.FuncNames, dense, names, rows)
			}

			// Early rows are zero-backfilled in late dimensions.
			col := -1
			for j, fn := range got.FuncNames {
				if fn == "io" {
					col = j
				}
			}
			if col < 0 {
				t.Fatal("late dimension io missing")
			}
			for i := 0; i < 8; i++ {
				if dense[i][col] != 0 {
					t.Fatalf("row %d not backfilled with zero in late dimension", i)
				}
			}
			for _, fn := range got.FuncNames {
				if strings.Contains(fn, "MPI_") {
					t.Fatalf("excluded function %q became a dimension", fn)
				}
			}
		})
	}
}

// The builder's CSRMatrix equals the batch FeaturesCSR over the same prefix
// at every point in the stream — the live stage's incremental form agrees
// with the canonical one even while dimensions are still appearing.
func TestBuilderRowMatchesMatrixMidGrowth(t *testing.T) {
	profiles := growthProfiles(12)
	for _, kind := range []FeatureKind{SampledSelf, ExactSelf, SelfPlusCalls} {
		kind := kind
		t.Run(fmt.Sprintf("kind=%d", kind), func(t *testing.T) {
			t.Parallel()
			opts := FeatureOptions{Kind: kind, Exclude: exclude}
			b := NewMatrixBuilder(opts)
			for i := range profiles {
				b.Add(&profiles[i])
				m, want := b.CSRMatrix(), FeaturesCSR(profiles[:i+1], opts)
				for r := 0; r <= i; r++ {
					gv, gc := m.Sparse.Row(r)
					wv, wc := want.Sparse.Row(r)
					if !reflect.DeepEqual(append([]float64{}, gv...), append([]float64{}, wv...)) ||
						!reflect.DeepEqual(append([]int32{}, gc...), append([]int32{}, wc...)) {
						t.Fatalf("after %d adds, CSRMatrix row %d != FeaturesCSR row %d", i+1, r, r)
					}
				}
			}
		})
	}
}

// Counters: NumRows/Dims track the stream; the builder's matrix shares
// no storage with it, so a snapshot taken mid-run is immutable under further
// growth.
func TestBuilderMatrixSnapshotImmutableUnderGrowth(t *testing.T) {
	profiles := growthProfiles(12)
	b := NewMatrixBuilder(FeatureOptions{Exclude: exclude})
	for i := 0; i < 6; i++ {
		b.Add(&profiles[i])
	}
	early := b.CSRMatrix()
	earlyCopy := FeaturesCSR(profiles[:6], FeatureOptions{Exclude: exclude})
	if b.NumRows() != 6 || b.Dims() != 2 {
		t.Fatalf("NumRows=%d Dims=%d, want 6 and 2", b.NumRows(), b.Dims())
	}
	for i := 6; i < 12; i++ {
		b.Add(&profiles[i])
	}
	if b.Dims() != 3 {
		t.Fatalf("Dims=%d after growth, want 3", b.Dims())
	}
	if !reflect.DeepEqual(early, earlyCopy) {
		t.Fatal("mid-run matrix snapshot mutated by later growth")
	}
}

// Every CSRMatrix row scattered into a zero vector must reproduce the naive
// reference row exactly, with sorted column indices and no stored zeros —
// the contract the clustering packed kernels assume — at every point in the
// stream.
func TestBuilderCSRRowsScatterToRow(t *testing.T) {
	profiles := growthProfiles(12)
	for _, kind := range []FeatureKind{SampledSelf, ExactSelf, SelfPlusCalls} {
		opts := FeatureOptions{Kind: kind, Exclude: exclude}
		b := NewMatrixBuilder(opts)
		for i := range profiles {
			b.Add(&profiles[i])
			m := b.CSRMatrix()
			_, want := naiveFeatures(profiles[:i+1], opts)
			for j := 0; j <= i; j++ {
				vals, idx := m.Sparse.Row(j)
				dense := make([]float64, b.Dims())
				for k, c := range idx {
					if k > 0 && idx[k-1] >= c {
						t.Fatalf("kind=%d row %d indices not sorted: %v", kind, j, idx)
					}
					if vals[k] == 0 {
						t.Fatalf("kind=%d row %d stored an explicit zero", kind, j)
					}
					dense[c] = vals[k]
				}
				if !reflect.DeepEqual(dense, want[j]) {
					t.Fatalf("kind=%d row %d scatter = %v, want %v", kind, j, dense, want[j])
				}
			}
		}
	}
}

// SelectRows, Row and FuncNames read the builder's rows and columns as
// CSRMatrix holds them at every point in the stream, while dimensions are
// still appearing: SelectRows equals CSRMatrix's SelectRows over the same
// rows, names and width included, Row(r) is row r with its cells, and
// FuncNames is CSRMatrix's column names.
func TestBuilderSelectRowsAndRowMatchCSRMatrix(t *testing.T) {
	profiles := growthProfiles(12)
	for _, kind := range []FeatureKind{SampledSelf, ExactSelf, SelfPlusCalls} {
		opts := FeatureOptions{Kind: kind, Exclude: exclude}
		b := NewMatrixBuilder(opts)
		for i := range profiles {
			b.Add(&profiles[i])
			full := b.CSRMatrix()
			var rows []int
			for r := i % 2; r <= i; r += 2 {
				rows = append(rows, r)
			}
			got := b.SelectRows(rows)
			if want := full.Sparse.SelectRows(rows); !reflect.DeepEqual(got.FuncNames, full.FuncNames) || !reflect.DeepEqual(got.Sparse, want) {
				t.Fatalf("kind=%d after %d adds: SelectRows(%v) = %+v, want %+v", kind, i+1, rows, got.Sparse, want)
			}
			if names := b.FuncNames(); !reflect.DeepEqual(names, full.FuncNames) {
				t.Fatalf("kind=%d after %d adds: FuncNames = %v, want %v", kind, i+1, names, full.FuncNames)
			}
			for r := 0; r <= i; r++ {
				vals, cols := b.Row(r)
				wv, wc := full.Sparse.Row(r)
				if !reflect.DeepEqual(append([]float64{}, vals...), append([]float64{}, wv...)) ||
					!reflect.DeepEqual(append([]int32{}, cols...), append([]int32{}, wc...)) {
					t.Fatalf("kind=%d after %d adds: Row(%d) = %v %v, want %v %v", kind, i+1, r, vals, cols, wv, wc)
				}
			}
		}
	}
}
