// matrix.go holds the per-interval store and the feature matrix built over
// it. MatrixBuilder keeps every interval once, as a Row of cells by function
// id; the clustering matrix, Algorithm 1, the checkpoint segment and any
// interval.Profile an API hands out all read those cells. The feature space
// grows when a function first shows activity mid-run, and earlier rows read
// as zero in the late dimensions, so a builder fed row by row produces the
// Matrix a batch FeaturesCSR call (a thin wrapper over the builder) does.
package interval

import (
	"encoding/binary"
	"slices"
	"sort"
	"time"

	"github.com/incprof/incprof/internal/xmath"
)

// Row is one interval held by a MatrixBuilder: its bounds, whether gap
// repair synthesized it, and its cells. A Row reads its cells from the
// builder's storage, which only ever grows, so a Row — and a slice of them,
// as Rows returns — stays valid however many intervals follow it.
type Row struct {
	Start, End time.Duration // as Profile's
	Repaired   bool          // as Profile's

	st       *cellStore
	from, to int // the row's cells are st.data[from:to]
}

// Cell is one function's activity in one interval; at least one of its
// quantities is non-zero.
type Cell struct {
	// ID numbers the function in its store; Row.Name maps it back.
	ID        int32
	Self      time.Duration
	ExactSelf time.Duration
	Calls     int64
}

// cellStore is what a builder's rows read: the function names by id and
// every row's cells back to back, each as varints — the id's distance from
// the previous cell's, then self, exact self and calls, 0 when absent.
// Varints keep an interval to a few bytes per active function, and the
// store holds no pointer per cell for the garbage collector to scan.
type cellStore struct {
	ids  map[string]int32
	fns  []string
	data []byte
}

// Cells appends the row's cells to buf in ascending id order.
func (r *Row) Cells(buf []Cell) []Cell {
	d := r.st.data[r.from:r.to]
	id := int32(-1)
	for len(d) > 0 {
		delta, n := binary.Uvarint(d)
		d = d[n:]
		self, n := binary.Varint(d)
		d = d[n:]
		exact, n := binary.Varint(d)
		d = d[n:]
		calls, n := binary.Varint(d)
		d = d[n:]
		id += int32(delta)
		buf = append(buf, Cell{ID: id, Self: time.Duration(self), ExactSelf: time.Duration(exact), Calls: calls})
	}
	return buf
}

// Name returns the name of function id.
func (r *Row) Name(id int32) string { return r.st.fns[id] }

// Lookup returns fn's id in the row's store, false when no interval of the
// store has recorded it.
func (r *Row) Lookup(fn string) (int32, bool) {
	id, ok := r.st.ids[fn]
	return id, ok
}

// NumFuncs bounds the function ids of the row's store: every id is below
// it.
func (r *Row) NumFuncs() int { return len(r.st.fns) }

// empty reports whether none of the cell's quantities is non-zero.
func (c Cell) empty() bool { return c.Self == 0 && c.ExactSelf == 0 && c.Calls == 0 }

// Profiles materializes rows as interval profiles indexed by position: one
// map entry per non-zero quantity.
func Profiles(rows []Row) []Profile {
	out := make([]Profile, len(rows))
	for i := range rows {
		r := &rows[i]
		out[i] = profileOf(r.Start, r.End, r.Repaired, r.Cells(nil), r.Name)
		out[i].Index = i
	}
	return out
}

// profileOf builds the profile of one interval from its cells, which name
// maps to function names.
func profileOf(start, end time.Duration, repaired bool, cells []Cell, name func(int32) string) Profile {
	p := Profile{Start: start, End: end, Repaired: repaired,
		Self: make(map[string]time.Duration), ExactSelf: make(map[string]time.Duration), Calls: make(map[string]int64)}
	for _, c := range cells {
		fn := name(c.ID)
		if c.Self != 0 {
			p.Self[fn] = c.Self
		}
		if c.ExactSelf != 0 {
			p.ExactSelf[fn] = c.ExactSelf
		}
		if c.Calls != 0 {
			p.Calls[fn] = c.Calls
		}
	}
	return p
}

// MatrixBuilder is the per-interval store and the clustering matrix over
// it. Rows hold only their non-zero cells, so memory is O(total non-zero
// cells + functions), not O(intervals × functions); CSRMatrix materializes
// the name-sorted canonical matrix on demand.
//
// The zero value is not usable; construct with NewMatrixBuilder.
type MatrixBuilder struct {
	opts FeatureOptions
	st   *cellStore
	rows []Row

	// Per function id: excl marks the functions opts.Exclude drops from
	// the feature space (their cells are still stored: Algorithm 1 reads
	// their activity), dim the ones that have qualified as a dimension —
	// positive feature value in at least one row, not excluded — and ndims
	// counts them. cols caches the dimension ids in name order and is
	// invalidated on growth.
	excl  []bool
	dim   []bool
	ndims int
	cols  []int32

	// ncells counts the stored cells, bounding the matrix's non-zeros.
	ncells int

	// Scratch: the row being added by id and the ids it touches, names new
	// to the store, decoded or Add's cells and Add's names, and one row's
	// time and call values scattered by id (all zeros between uses).
	pend    []Cell
	touched []int32
	fresh   []string
	cells   []Cell
	names   []string
	times   []float64
	calls   []float64
}

// NewMatrixBuilder returns an empty builder for the given feature options.
func NewMatrixBuilder(opts FeatureOptions) *MatrixBuilder {
	return &MatrixBuilder{opts: opts, st: &cellStore{ids: make(map[string]int32)}}
}

// Add appends one interval given as a profile: the form FeaturesCSR and
// the []Profile entry points of package phase hand in.
func (b *MatrixBuilder) Add(p *Profile) {
	names, cells := b.names[:0], b.cells[:0]
	for fn, v := range p.Self {
		names, cells = append(names, fn), append(cells, Cell{ID: int32(len(cells)), Self: v})
	}
	for fn, v := range p.ExactSelf {
		names, cells = append(names, fn), append(cells, Cell{ID: int32(len(cells)), ExactSelf: v})
	}
	for fn, v := range p.Calls {
		names, cells = append(names, fn), append(cells, Cell{ID: int32(len(cells)), Calls: v})
	}
	b.AddCells(p.Start, p.End, p.Repaired, cells, func(id int32) string { return names[id] })
	b.names, b.cells = names, cells
}

// AddCells appends one interval given its cells in the caller's own
// numbering, which name maps to function names: the differencing kernels'
// Delta, a restored row. A function's quantities may come split across
// several cells; each non-zero one is kept. A function first crossing zero
// activity here grows the feature space; rows added earlier read as zero in
// the new dimension.
func (b *MatrixBuilder) AddCells(start, end time.Duration, repaired bool, cells []Cell, name func(int32) string) {
	known := int32(len(b.st.fns))
	for _, c := range cells {
		if id, ok := b.st.ids[name(c.ID)]; ok {
			b.merge(id, c)
		} else if !c.empty() {
			b.fresh = append(b.fresh, name(c.ID))
		}
	}
	if len(b.fresh) > 0 {
		b.intern()
		for _, c := range cells {
			if id, ok := b.st.ids[name(c.ID)]; ok && id >= known {
				b.merge(id, c)
			}
		}
	}
	b.commit(start, end, repaired)
}

// intern gives the names in b.fresh ids in name order, so the ids do not
// depend on the order cells come in; b.fresh is empty afterwards.
func (b *MatrixBuilder) intern() {
	sort.Strings(b.fresh)
	for _, fn := range slices.Compact(b.fresh) {
		b.st.ids[fn] = int32(len(b.st.fns))
		b.st.fns = append(b.st.fns, fn)
		b.excl = append(b.excl, b.opts.Exclude != nil && b.opts.Exclude(fn))
		b.dim = append(b.dim, false)
		b.pend = append(b.pend, Cell{})
	}
	b.fresh = b.fresh[:0]
}

// merge records c's non-zero quantities in the pending cell of function id.
func (b *MatrixBuilder) merge(id int32, c Cell) {
	p := b.touch(id)
	if c.Self != 0 {
		p.Self = c.Self
	}
	if c.ExactSelf != 0 {
		p.ExactSelf = c.ExactSelf
	}
	if c.Calls != 0 {
		p.Calls = c.Calls
	}
}

// touch returns the pending cell of function id, noting the id when the
// cell is still all zero (a cell left zero may be noted twice; commit
// stores it at most once).
func (b *MatrixBuilder) touch(id int32) *Cell {
	c := &b.pend[id]
	if *c == (Cell{}) {
		b.touched = append(b.touched, id)
	}
	return c
}

// commit encodes the pending row, registers the dimensions it qualifies,
// and clears the pending state.
func (b *MatrixBuilder) commit(start, end time.Duration, repaired bool) {
	slices.Sort(b.touched)
	from := len(b.st.data)
	prev := int32(-1)
	for _, id := range b.touched {
		c := b.pend[id]
		b.pend[id] = Cell{}
		if c.Self == 0 && c.ExactSelf == 0 && c.Calls == 0 {
			continue // all zero, or noted twice and stored already
		}
		b.st.data = binary.AppendUvarint(b.st.data, uint64(id-prev))
		b.st.data = binary.AppendVarint(b.st.data, int64(c.Self))
		b.st.data = binary.AppendVarint(b.st.data, int64(c.ExactSelf))
		b.st.data = binary.AppendVarint(b.st.data, c.Calls)
		prev = id
		b.ncells++
		// Non-zero cells are stored even when the function has not (yet)
		// qualified as a dimension: the matrix carries the stored value
		// for every row once the function qualifies in any row, including
		// rows where it was negative.
		if !b.excl[id] && !b.dim[id] && (b.timeOf(c) > 0 || (b.opts.Kind == SelfPlusCalls && c.Calls > 0)) {
			b.dim[id] = true
			b.ndims++
			b.cols = nil
		}
	}
	b.touched = b.touched[:0]
	b.rows = append(b.rows, Row{Start: start, End: end, Repaired: repaired, st: b.st, from: from, to: len(b.st.data)})
}

// timeOf is the time quantity the configured feature kind reads.
func (b *MatrixBuilder) timeOf(c Cell) time.Duration {
	if b.opts.Kind == ExactSelf {
		return c.ExactSelf
	}
	return c.Self
}

// NumRows returns the number of intervals added so far.
func (b *MatrixBuilder) NumRows() int { return len(b.rows) }

// Rows returns every interval added so far, in order. Later Adds do not
// change the returned rows; appending to the slice does not change the
// builder.
func (b *MatrixBuilder) Rows() []Row { return b.rows[:len(b.rows):len(b.rows)] }

// columns returns the dimension ids in canonical (name-sorted) order.
func (b *MatrixBuilder) columns() []int32 {
	if b.cols == nil {
		b.cols = make([]int32, 0, b.ndims)
		for id, ok := range b.dim {
			if ok {
				b.cols = append(b.cols, int32(id))
			}
		}
		sort.Slice(b.cols, func(i, j int) bool { return b.st.fns[b.cols[i]] < b.st.fns[b.cols[j]] })
	}
	return b.cols
}

// CSRMatrix materializes the canonical clustering matrix over everything
// added so far in flat CSR form — the builder's native sparsity handed to
// clustering with no densification: columns name-sorted, each row's
// non-zero cells in ascending column order, zero backfill for dimensions
// that appeared after the row was added. The result shares no storage with
// the builder, so callers may hold it across further Add calls.
func (b *MatrixBuilder) CSRMatrix() Matrix { return b.SelectRows(nil) }

// SelectRows materializes the listed rows of the canonical matrix, in the
// given order, at its full width: CSRMatrix().Sparse.SelectRows(rows) with
// CSRMatrix's column names, without building the rows left out. nil selects
// every row.
func (b *MatrixBuilder) SelectRows(rows []int) Matrix {
	cols := b.columns()
	names := b.FuncNames()
	n := len(rows)
	csr := &xmath.CSR{NumCols: len(names)}
	if rows == nil {
		n = b.NumRows()
		nnz := b.ncells
		if b.opts.Kind == SelfPlusCalls {
			nnz *= 2
		}
		csr.Vals = make([]float64, 0, nnz)
		csr.Cols = make([]int32, 0, nnz)
	}
	csr.RowPtr = make([]int, n+1)
	for r := 0; r < n; r++ {
		i := r
		if rows != nil {
			i = rows[r]
		}
		csr.Cols, csr.Vals = b.appendRow(i, cols, csr.Cols, csr.Vals)
		csr.RowPtr[r+1] = len(csr.Vals)
	}
	return Matrix{FuncNames: names, Sparse: csr}
}

// FuncNames returns the canonical matrix's column names as CSRMatrix would
// label them: the dimensions in name order, then (under SelfPlusCalls)
// their "#calls:" columns.
func (b *MatrixBuilder) FuncNames() []string {
	cols := b.columns()
	names := make([]string, len(cols), b.Dims())
	for j, id := range cols {
		names[j] = b.st.fns[id]
	}
	if b.opts.Kind == SelfPlusCalls {
		for _, n := range names[:len(cols)] {
			names = append(names, "#calls:"+n)
		}
	}
	return names
}

// Row returns row i of the canonical matrix as CSRMatrix would hold it
// now, without materializing the matrix: its non-zero values and their
// ascending columns.
func (b *MatrixBuilder) Row(i int) ([]float64, []int32) {
	cols, vals := b.appendRow(i, b.columns(), nil, nil)
	return vals, cols
}

// appendRow appends row i's non-zero cells over the given name-sorted
// dimension ids to idx and vals in ascending column order: the time
// columns, then (under SelfPlusCalls) the call-count columns. The row is
// scattered by function id, then gathered in column order.
func (b *MatrixBuilder) appendRow(i int, cols []int32, idx []int32, vals []float64) ([]int32, []float64) {
	if len(b.times) < len(b.st.fns) {
		b.times = make([]float64, len(b.st.fns))
		b.calls = make([]float64, len(b.st.fns))
	}
	b.cells = b.rows[i].Cells(b.cells[:0])
	for _, c := range b.cells {
		b.times[c.ID] = b.timeOf(c).Seconds()
		b.calls[c.ID] = float64(c.Calls)
	}
	idx, vals = gather(b.times, cols, 0, idx, vals)
	if b.opts.Kind == SelfPlusCalls {
		idx, vals = gather(b.calls, cols, len(cols), idx, vals)
	}
	for _, c := range b.cells {
		b.times[c.ID], b.calls[c.ID] = 0, 0
	}
	return idx, vals
}

// gather appends the non-zero values of byID at the given dimension ids, in
// column order, offsetting column numbers by off.
func gather(byID []float64, cols []int32, off int, idx []int32, vals []float64) ([]int32, []float64) {
	for j, id := range cols {
		if v := byID[id]; v != 0 {
			idx = append(idx, int32(off+j))
			vals = append(vals, v)
		}
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
