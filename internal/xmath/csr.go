// csr.go holds the flat compressed-sparse-row matrix the analysis hot path
// runs on, plus the packed-vector distance kernels that consume it. A CSR
// matrix stores every row's non-zero cells in three shared backing arrays —
// values, column indices, row offsets — so an n×d interval-by-function
// feature matrix costs O(nnz) memory with zero per-row slice headers, instead
// of the n dense rows (plus n slice headers) the [][]float64 form needs.
//
// Bit-identity contract: every packed kernel returns the EXACT float64 the
// corresponding dense kernel returns on the scattered (densified) operands,
// not an approximation. Skipped zero-zero terms add exactly +0 to the partial
// sum (fl(s + 0) == s, and s is never -0 because squared terms are
// non-negative and the accumulator starts at +0), surviving terms accumulate
// in ascending column order — the dense loop's order — and a value paired
// with a zero contributes fl((±v)²), which is bit-equal whichever side the
// zero is on. That contract is what lets clustering pick the packed or the
// dense kernel purely on cost while its determinism goldens stay
// byte-identical.
package xmath

import "math"

// CSR is a flat compressed-sparse-row float64 matrix: row i's non-zero cells
// are Vals[RowPtr[i]:RowPtr[i+1]] at columns Cols[RowPtr[i]:RowPtr[i+1]]
// (strictly ascending within a row). NumCols fixes the logical width; columns
// absent from a row read as zero.
type CSR struct {
	// NumCols is the logical column count (the feature-space dimension).
	NumCols int
	// Vals holds every row's non-zero values, rows concatenated.
	Vals []float64
	// Cols holds the column index of each value, ascending within a row.
	Cols []int32
	// RowPtr has length NumRows+1; row i spans [RowPtr[i], RowPtr[i+1]).
	RowPtr []int
}

// NumRows returns the number of rows.
func (m *CSR) NumRows() int {
	if len(m.RowPtr) == 0 {
		return 0
	}
	return len(m.RowPtr) - 1
}

// NNZ returns the number of stored (non-zero) cells.
func (m *CSR) NNZ() int { return len(m.Vals) }

// Density returns the stored-cell fraction, 0 for an empty matrix.
func (m *CSR) Density() float64 {
	cells := m.NumRows() * m.NumCols
	if cells == 0 {
		return 0
	}
	return float64(len(m.Vals)) / float64(cells)
}

// Row returns row i's packed values and column indices as views into the
// backing arrays. Callers must not mutate them.
func (m *CSR) Row(i int) ([]float64, []int32) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.Vals[lo:hi:hi], m.Cols[lo:hi:hi]
}

// ScatterRow writes row i densely into dst (which must have length NumCols),
// zeroing the untouched columns, and returns dst.
func (m *CSR) ScatterRow(i int, dst []float64) []float64 {
	for j := range dst {
		dst[j] = 0
	}
	vals, cols := m.Row(i)
	for t, c := range cols {
		dst[c] = vals[t]
	}
	return dst
}

// Dense materializes the full dense form — the >50%-density fallback and the
// naive-reference path, not the hot path.
func (m *CSR) Dense() [][]float64 {
	n := m.NumRows()
	rows := make([][]float64, n)
	flat := make([]float64, n*m.NumCols)
	for i := 0; i < n; i++ {
		rows[i] = flat[i*m.NumCols : (i+1)*m.NumCols : (i+1)*m.NumCols]
		m.ScatterRow(i, rows[i])
	}
	return rows
}

// SelectRows returns the matrix of the given rows, in the given order, at
// the same width. The cells are copied, so the result owns its arrays.
func (m *CSR) SelectRows(rows []int) *CSR {
	nnz := 0
	for _, i := range rows {
		nnz += m.RowPtr[i+1] - m.RowPtr[i]
	}
	out := &CSR{
		NumCols: m.NumCols,
		Vals:    make([]float64, 0, nnz),
		Cols:    make([]int32, 0, nnz),
		RowPtr:  make([]int, len(rows)+1),
	}
	for r, i := range rows {
		vals, cols := m.Row(i)
		out.Vals = append(out.Vals, vals...)
		out.Cols = append(out.Cols, cols...)
		out.RowPtr[r+1] = len(out.Vals)
	}
	return out
}

// NewCSRFromDense packs dense rows (which must share one length) into CSR
// form. The inverse of Dense up to the dropped explicit zeros.
func NewCSRFromDense(rows [][]float64) *CSR {
	m := &CSR{RowPtr: make([]int, len(rows)+1)}
	if len(rows) > 0 {
		m.NumCols = len(rows[0])
	}
	for i, r := range rows {
		for j, v := range r {
			if v != 0 {
				m.Vals = append(m.Vals, v)
				m.Cols = append(m.Cols, int32(j))
			}
		}
		m.RowPtr[i+1] = len(m.Vals)
	}
	return m
}

// SquaredEuclideanPacked returns the squared L2 distance between two packed
// sparse vectors (values + ascending column indices), bit-identical to
// SquaredEuclidean on their scattered dense forms.
func SquaredEuclideanPacked(av []float64, ac []int32, bv []float64, bc []int32) float64 {
	var s float64
	i, j := 0, 0
	for i < len(ac) && j < len(bc) {
		switch {
		case ac[i] == bc[j]:
			d := av[i] - bv[j]
			s += d * d
			i++
			j++
		case ac[i] < bc[j]:
			d := av[i]
			s += d * d
			i++
		default:
			d := bv[j]
			s += d * d
			j++
		}
	}
	for ; i < len(ac); i++ {
		d := av[i]
		s += d * d
	}
	for ; j < len(bc); j++ {
		d := bv[j]
		s += d * d
	}
	return s
}

// SquaredEuclideanPackedBounded is SquaredEuclideanPacked with the partial-sum
// early exit of SquaredEuclideanBounded: once the accumulated sum reaches
// limit the scan is abandoned, returning (partial, false); a complete scan
// returns (exact, true). Abandoning is exact for the same reason as the dense
// kernel — squared terms are non-negative, so a partial sum at or above limit
// proves the full distance is too. The limit check runs once per 8 surviving
// terms; checkpoint spacing does not affect exactness.
func SquaredEuclideanPackedBounded(av []float64, ac []int32, bv []float64, bc []int32, limit float64) (float64, bool) {
	var s float64
	i, j, n := 0, 0, 0
	for i < len(ac) && j < len(bc) {
		switch {
		case ac[i] == bc[j]:
			d := av[i] - bv[j]
			s += d * d
			i++
			j++
		case ac[i] < bc[j]:
			d := av[i]
			s += d * d
			i++
		default:
			d := bv[j]
			s += d * d
			j++
		}
		if n++; n&7 == 0 && s >= limit {
			return s, false
		}
	}
	for ; i < len(ac); i++ {
		d := av[i]
		s += d * d
		if n++; n&7 == 0 && s >= limit {
			return s, false
		}
	}
	for ; j < len(bc); j++ {
		d := bv[j]
		s += d * d
		if n++; n&7 == 0 && s >= limit {
			return s, false
		}
	}
	if s >= limit {
		return s, false
	}
	return s, true
}

// SquaredEuclideanPackedDense returns the squared L2 distance between a
// packed sparse vector and a dense vector b, bit-identical to
// SquaredEuclidean(scatter(a, len(b)), b). Every column of b contributes in
// ascending order; columns absent from a contribute fl(b[d]²), which is
// bit-equal to the dense loop's fl((0-b[d])²).
func SquaredEuclideanPackedDense(av []float64, ac []int32, b []float64) float64 {
	var s float64
	i := 0
	for d := 0; d < len(b); d++ {
		var t float64
		if i < len(ac) && int(ac[i]) == d {
			t = av[i] - b[d]
			i++
		} else {
			t = b[d]
		}
		s += t * t
	}
	return s
}

// EuclideanPackedDense is the L2 form of SquaredEuclideanPackedDense.
func EuclideanPackedDense(av []float64, ac []int32, b []float64) float64 {
	return math.Sqrt(SquaredEuclideanPackedDense(av, ac, b))
}

// SquaredEuclideanPackedDenseBounded adds the exact partial-sum early exit to
// SquaredEuclideanPackedDense, checking limit once per 8-column block exactly
// like SquaredEuclideanBounded.
func SquaredEuclideanPackedDenseBounded(av []float64, ac []int32, b []float64, limit float64) (float64, bool) {
	var s float64
	i := 0
	d := 0
	for ; d+8 <= len(b); d += 8 {
		for e := d; e < d+8; e++ {
			var t float64
			if i < len(ac) && int(ac[i]) == e {
				t = av[i] - b[e]
				i++
			} else {
				t = b[e]
			}
			s += t * t
		}
		if s >= limit {
			return s, false
		}
	}
	for ; d < len(b); d++ {
		var t float64
		if i < len(ac) && int(ac[i]) == d {
			t = av[i] - b[d]
			i++
		} else {
			t = b[d]
		}
		s += t * t
	}
	return s, true
}
