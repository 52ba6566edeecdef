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

	// ids numbers every function that has had a stored cell, in
	// first-seen order, and fns maps the number back. dim marks the ones
	// that have qualified as a dimension — positive feature value in at
	// least one row, not excluded — and ndims counts them. cols caches the
	// dimension ids in name order and is invalidated on growth.
	ids   map[string]int32
	fns   []string
	dim   []bool
	ndims int
	cols  []int32

	// Each row's non-zero cells, by function id, flat across rows: row i's
	// time cells are cells[rowEnd[i-1]:rowEnd[i]] (from 0 for row 0), its
	// call-count cells (SelfPlusCalls only) calls[callEnd[i-1]:callEnd[i]].
	// Cells are keyed by function, not column, so a dimension that appears
	// late needs no backfill pass over old rows: their cells are simply
	// absent, i.e. zero. The flat arrays hold no pointers, so they cost the
	// garbage collector nothing to scan however long the run.
	cells   []cell
	rowEnd  []int
	calls   []cell
	callEnd []int

	// scratch is one row scattered by function id; it is all zeros
	// between appendRow calls.
	scratch []float64
}

// cell is one stored non-zero value of function id.
type cell struct {
	id int32
	v  float64
}

// NewMatrixBuilder returns an empty builder for the given feature options.
func NewMatrixBuilder(opts FeatureOptions) *MatrixBuilder {
	return &MatrixBuilder{opts: opts, ids: make(map[string]int32)}
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
	for fn, d := range b.pick(p) {
		if d == 0 || b.excluded(fn) {
			continue
		}
		// Non-zero cells are stored even when the function has not (yet)
		// qualified as a dimension: the matrix carries the stored value
		// for every row once the function qualifies in any row, including
		// rows where it was negative.
		id := b.id(fn, d > 0)
		b.cells = append(b.cells, cell{id, d.Seconds()})
	}
	b.rowEnd = append(b.rowEnd, len(b.cells))
	if b.opts.Kind == SelfPlusCalls {
		for fn, n := range p.Calls {
			if n == 0 || b.excluded(fn) {
				continue
			}
			id := b.id(fn, n > 0)
			b.calls = append(b.calls, cell{id, float64(n)})
		}
	}
	b.callEnd = append(b.callEnd, len(b.calls))
}

func (b *MatrixBuilder) excluded(fn string) bool {
	return b.opts.Exclude != nil && b.opts.Exclude(fn)
}

// id returns fn's function number, assigning the next one on first sight,
// and registers fn as a dimension the first time qualifies is set.
func (b *MatrixBuilder) id(fn string, qualifies bool) int32 {
	id, ok := b.ids[fn]
	if !ok {
		id = int32(len(b.fns))
		b.ids[fn] = id
		b.fns = append(b.fns, fn)
		b.dim = append(b.dim, false)
	}
	if qualifies && !b.dim[id] {
		b.dim[id] = true
		b.ndims++
		b.cols = nil
	}
	return id
}

// NumRows returns the number of intervals added so far.
func (b *MatrixBuilder) NumRows() int { return len(b.rowEnd) }

// columns returns the dimension ids in canonical (name-sorted) order.
func (b *MatrixBuilder) columns() []int32 {
	if b.cols == nil {
		b.cols = make([]int32, 0, b.ndims)
		for id, ok := range b.dim {
			if ok {
				b.cols = append(b.cols, int32(id))
			}
		}
		sort.Slice(b.cols, func(i, j int) bool { return b.fns[b.cols[i]] < b.fns[b.cols[j]] })
	}
	return b.cols
}

// CSRMatrix materializes the canonical clustering matrix over everything
// added so far in flat CSR form — the builder's native sparsity handed to
// clustering with no densification: columns name-sorted, each row's
// non-zero cells in ascending column order, zero backfill for dimensions
// that appeared after the row was added. The result shares no storage with
// the builder, so callers may hold it across further Add calls.
func (b *MatrixBuilder) CSRMatrix() Matrix {
	cols := b.columns()
	names := make([]string, len(cols), b.Dims())
	for j, id := range cols {
		names[j] = b.fns[id]
	}
	if b.opts.Kind == SelfPlusCalls {
		for _, n := range names[:len(cols)] {
			names = append(names, "#calls:"+n)
		}
	}
	rows := b.NumRows()
	csr := &xmath.CSR{NumCols: len(names), RowPtr: make([]int, rows+1)}
	nnz := len(b.cells) + len(b.calls)
	csr.Vals = make([]float64, 0, nnz)
	csr.Cols = make([]int32, 0, nnz)
	for i := 0; i < rows; i++ {
		csr.Cols, csr.Vals = b.appendRow(i, cols, csr.Cols, csr.Vals)
		csr.RowPtr[i+1] = len(csr.Vals)
	}
	return Matrix{FuncNames: names, Sparse: csr}
}

// appendRow appends row i's non-zero cells over the given name-sorted
// dimension ids to idx and vals in ascending column order: the time
// columns, then (under SelfPlusCalls) the call-count columns.
func (b *MatrixBuilder) appendRow(i int, cols []int32, idx []int32, vals []float64) ([]int32, []float64) {
	idx, vals = b.appendCells(b.cells, b.rowEnd, i, cols, 0, idx, vals)
	if b.opts.Kind == SelfPlusCalls {
		idx, vals = b.appendCells(b.calls, b.callEnd, i, cols, len(cols), idx, vals)
	}
	return idx, vals
}

// appendCells scatters row i of one flat cell array by function id, then
// gathers it in column order, offsetting column numbers by off.
func (b *MatrixBuilder) appendCells(cells []cell, end []int, i int, cols []int32, off int, idx []int32, vals []float64) ([]int32, []float64) {
	from := 0
	if i > 0 {
		from = end[i-1]
	}
	row := cells[from:end[i]]
	if len(b.scratch) < len(b.fns) {
		b.scratch = make([]float64, len(b.fns))
	}
	for _, c := range row {
		b.scratch[c.id] = c.v
	}
	for j, id := range cols {
		if v := b.scratch[id]; v != 0 {
			idx = append(idx, int32(off+j))
			vals = append(vals, v)
		}
	}
	for _, c := range row {
		b.scratch[c.id] = 0
	}
	return idx, vals
}

// Dims returns the number of columns the matrix currently has (NumFuncs,
// doubled under SelfPlusCalls).
func (b *MatrixBuilder) Dims() int {
	if b.opts.Kind == SelfPlusCalls {
		return 2 * b.ndims
	}
	return b.ndims
}
