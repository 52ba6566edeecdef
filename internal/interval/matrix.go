// matrix.go holds the incremental feature-matrix builder: the streaming
// counterpart of FeaturesCSR. Rows append one interval at a time, the feature
// space grows when a function first shows activity mid-run, and earlier rows
// are implicitly backfilled with zeros for late-appearing dimensions — so a
// builder fed row by row produces a Matrix identical to a batch FeaturesCSR
// call over the same profiles. FeaturesCSR itself is a thin wrapper over the
// builder: there is exactly one code path that decides what becomes a
// dimension and what value a cell gets.
package interval

import (
	"sort"
	"time"

	"github.com/incprof/incprof/internal/xmath"
)

// MatrixBuilder accumulates interval profiles into a clustering matrix
// incrementally. Internally rows are stored sparsely (only non-zero cells),
// so memory is O(total non-zero cells + functions), not
// O(intervals × functions); CSRMatrix materializes the name-sorted canonical
// form on demand.
//
// The zero value is not usable; construct with NewMatrixBuilder.
type MatrixBuilder struct {
	opts FeatureOptions

	// seen is the set of functions that have qualified as a dimension —
	// positive feature value in at least one row, not excluded. sorted
	// caches the name-sorted order and is invalidated on growth.
	seen   map[string]bool
	sorted []string

	// rows and callRows hold each interval's non-zero cells by function
	// name. Values are keyed by name, not column index, so a dimension
	// that appears late needs no backfill pass over old rows: their cells
	// are simply absent, i.e. zero.
	rows     []map[string]float64
	callRows []map[string]int64
}

// NewMatrixBuilder returns an empty builder for the given feature options.
func NewMatrixBuilder(opts FeatureOptions) *MatrixBuilder {
	return &MatrixBuilder{opts: opts, seen: make(map[string]bool)}
}

// pick selects the per-function duration map the configured feature kind
// reads.
func (b *MatrixBuilder) pick(p *Profile) map[string]time.Duration {
	if b.opts.Kind == ExactSelf {
		return p.ExactSelf
	}
	return p.Self
}

// Add appends one interval's row. A function first crossing zero activity
// here grows the feature space; rows added earlier read as zero in the new
// dimension.
func (b *MatrixBuilder) Add(p *Profile) {
	sel := b.pick(p)
	row := make(map[string]float64, len(sel))
	for fn, d := range sel {
		if d > 0 && !b.excluded(fn) {
			b.grow(fn)
		}
		if d != 0 && !b.excluded(fn) {
			// Non-zero cells are stored even when the function has not
			// (yet) qualified as a dimension: the matrix carries the
			// stored value for every row once the function qualifies in
			// any row, including rows where it was negative.
			row[fn] = d.Seconds()
		}
	}
	b.rows = append(b.rows, row)
	if b.opts.Kind == SelfPlusCalls {
		calls := make(map[string]int64, len(p.Calls))
		for fn, n := range p.Calls {
			if b.excluded(fn) {
				continue
			}
			if n > 0 {
				b.grow(fn)
			}
			if n != 0 {
				calls[fn] = n
			}
		}
		b.callRows = append(b.callRows, calls)
	} else {
		b.callRows = append(b.callRows, nil)
	}
}

func (b *MatrixBuilder) excluded(fn string) bool {
	return b.opts.Exclude != nil && b.opts.Exclude(fn)
}

// grow registers fn as a dimension on first qualification.
func (b *MatrixBuilder) grow(fn string) {
	if !b.seen[fn] {
		b.seen[fn] = true
		b.sorted = nil
	}
}

// NumRows returns the number of intervals added so far.
func (b *MatrixBuilder) NumRows() int { return len(b.rows) }

// NumFuncs returns the number of function dimensions observed so far (before
// the SelfPlusCalls doubling).
func (b *MatrixBuilder) NumFuncs() int { return len(b.seen) }

// names returns the dimension names in canonical (sorted) order.
func (b *MatrixBuilder) names() []string {
	if b.sorted == nil {
		b.sorted = make([]string, 0, len(b.seen))
		for fn := range b.seen {
			b.sorted = append(b.sorted, fn)
		}
		sort.Strings(b.sorted)
	}
	return b.sorted
}

// CSRMatrix materializes the canonical clustering matrix over everything
// added so far in flat CSR form — the builder's native sparsity handed to
// clustering with no densification: columns name-sorted, each row's
// non-zero cells in ascending column order, zero backfill for dimensions
// that appeared after the row was added. The result shares no storage with
// the builder, so callers may hold it across further Add calls.
func (b *MatrixBuilder) CSRMatrix() Matrix {
	names := b.names()
	cols := names
	if b.opts.Kind == SelfPlusCalls {
		cols = make([]string, 0, 2*len(names))
		cols = append(cols, names...)
		for _, n := range names {
			cols = append(cols, "#calls:"+n)
		}
	}
	csr := &xmath.CSR{NumCols: len(cols), RowPtr: make([]int, len(b.rows)+1)}
	nnz := 0
	for _, sparse := range b.rows {
		nnz += len(sparse)
	}
	csr.Vals = make([]float64, 0, nnz)
	csr.Cols = make([]int32, 0, nnz)
	for i := range b.rows {
		csr.Cols, csr.Vals = b.appendRow(i, names, csr.Cols, csr.Vals)
		csr.RowPtr[i+1] = len(csr.Vals)
	}
	return Matrix{FuncNames: append([]string(nil), cols...), Sparse: csr}
}

// SparseRow returns the i-th row's non-zero cells as parallel (sorted column
// index, value) slices in the current canonical space — the builder's native
// sparse representation exposed without densifying. idx and vals are reused
// when their capacity allows. The cells are exactly row i of CSRMatrix.
func (b *MatrixBuilder) SparseRow(i int, idx []int32, vals []float64) ([]int32, []float64) {
	return b.appendRow(i, b.names(), idx[:0], vals[:0])
}

// appendRow appends row i's non-zero cells over the given name-sorted
// dimensions to idx and vals in ascending column order: the time columns,
// then (under SelfPlusCalls) the call-count columns.
func (b *MatrixBuilder) appendRow(i int, names []string, idx []int32, vals []float64) ([]int32, []float64) {
	for j, fn := range names {
		if v := b.rows[i][fn]; v != 0 {
			idx = append(idx, int32(j))
			vals = append(vals, v)
		}
	}
	if b.opts.Kind == SelfPlusCalls {
		off := len(names)
		for j, fn := range names {
			if n := b.callRows[i][fn]; n != 0 {
				idx = append(idx, int32(off+j))
				vals = append(vals, float64(n))
			}
		}
	}
	return idx, vals
}

// Dims returns the number of columns the matrix currently has (NumFuncs,
// doubled under SelfPlusCalls).
func (b *MatrixBuilder) Dims() int {
	if b.opts.Kind == SelfPlusCalls {
		return 2 * len(b.seen)
	}
	return len(b.seen)
}
