package spmat

import "fmt"

// Transpose returns the transpose of m using a counting sort over rows. The
// result always has sorted columns, regardless of the input ordering, which
// makes Transpose a convenient canonicalizer.
func Transpose(m *CSC) *CSC {
	nnz := m.NNZ()
	t := &CSC{
		Rows:       m.Cols,
		Cols:       m.Rows,
		ColPtr:     make([]int64, m.Rows+1),
		RowIdx:     make([]int32, nnz),
		Val:        make([]float64, nnz),
		SortedCols: true,
	}
	for _, r := range m.RowIdx {
		t.ColPtr[r+1]++
	}
	for i := int32(0); i < m.Rows; i++ {
		t.ColPtr[i+1] += t.ColPtr[i]
	}
	next := append([]int64(nil), t.ColPtr[:m.Rows]...)
	if !m.SortedCols {
		// The counting sort preserves the input traversal order inside each
		// output column; traversing columns in order keeps output sorted by
		// column index (= original row-major order per output column), which
		// is ascending because we scan j in increasing order.
	}
	for j := int32(0); j < m.Cols; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			r := m.RowIdx[p]
			q := next[r]
			t.RowIdx[q] = j
			t.Val[q] = m.Val[p]
			next[r]++
		}
	}
	return t
}

// ColRange returns the submatrix consisting of columns [j0, j1). Row indices
// are unchanged; column j of the result is column j0+j of m.
func ColRange(m *CSC, j0, j1 int32) *CSC {
	if j0 < 0 || j1 < j0 || j1 > m.Cols {
		panic(fmt.Sprintf("spmat: ColRange [%d,%d) out of range for %d columns", j0, j1, m.Cols))
	}
	lo, hi := m.ColPtr[j0], m.ColPtr[j1]
	out := &CSC{
		Rows:       m.Rows,
		Cols:       j1 - j0,
		ColPtr:     make([]int64, j1-j0+1),
		RowIdx:     append([]int32(nil), m.RowIdx[lo:hi]...),
		Val:        append([]float64(nil), m.Val[lo:hi]...),
		SortedCols: m.SortedCols,
	}
	for j := j0; j <= j1; j++ {
		out.ColPtr[j-j0] = m.ColPtr[j] - lo
	}
	return out
}

// ColSelect gathers the listed columns (in the given order) into a new
// matrix. It implements the block-cyclic batch extraction of Fig 1(i).
func ColSelect(m *CSC, cols []int32) *CSC {
	var nnz int64
	for _, j := range cols {
		nnz += m.ColNNZ(j)
	}
	out := &CSC{
		Rows:       m.Rows,
		Cols:       int32(len(cols)),
		ColPtr:     make([]int64, len(cols)+1),
		RowIdx:     make([]int32, 0, nnz),
		Val:        make([]float64, 0, nnz),
		SortedCols: m.SortedCols,
	}
	for k, j := range cols {
		rows, vals := m.Column(j)
		out.RowIdx = append(out.RowIdx, rows...)
		out.Val = append(out.Val, vals...)
		out.ColPtr[k+1] = int64(len(out.RowIdx))
	}
	return out
}

// RowRange returns the submatrix of rows [i0, i1) with row indices shifted to
// start at zero. Columns are preserved.
func RowRange(m *CSC, i0, i1 int32) *CSC {
	if i0 < 0 || i1 < i0 || i1 > m.Rows {
		panic(fmt.Sprintf("spmat: RowRange [%d,%d) out of range for %d rows", i0, i1, m.Rows))
	}
	out := &CSC{
		Rows:       i1 - i0,
		Cols:       m.Cols,
		ColPtr:     make([]int64, m.Cols+1),
		SortedCols: m.SortedCols,
	}
	for j := int32(0); j < m.Cols; j++ {
		rows, vals := m.Column(j)
		for p := range rows {
			if rows[p] >= i0 && rows[p] < i1 {
				out.RowIdx = append(out.RowIdx, rows[p]-i0)
				out.Val = append(out.Val, vals[p])
			}
		}
		out.ColPtr[j+1] = int64(len(out.RowIdx))
	}
	return out
}

// HCat concatenates matrices side by side: all operands must have the same
// number of rows. Column k of parts[i] becomes column (Σ_{<i} cols)+k.
func HCat(parts []*CSC) *CSC {
	if len(parts) == 0 {
		panic("spmat: HCat of zero matrices")
	}
	rows := parts[0].Rows
	var cols int32
	var nnz int64
	sorted := true
	for _, p := range parts {
		if p.Rows != rows {
			panic(fmt.Sprintf("spmat: HCat row mismatch %d vs %d", p.Rows, rows))
		}
		cols += p.Cols
		nnz += p.NNZ()
		sorted = sorted && p.SortedCols
	}
	out := &CSC{
		Rows:       rows,
		Cols:       cols,
		ColPtr:     make([]int64, cols+1),
		RowIdx:     make([]int32, 0, nnz),
		Val:        make([]float64, 0, nnz),
		SortedCols: sorted,
	}
	c := int32(0)
	for _, p := range parts {
		for j := int32(0); j < p.Cols; j++ {
			rws, vls := p.Column(j)
			out.RowIdx = append(out.RowIdx, rws...)
			out.Val = append(out.Val, vls...)
			c++
			out.ColPtr[c] = int64(len(out.RowIdx))
		}
	}
	return out
}

// Add returns a+b computed entry-wise with add (nil means ordinary +). The
// result has sorted, compacted columns.
func Add(a, b *CSC, add func(x, y float64) float64) *CSC {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("spmat: Add shape mismatch %v vs %v", a, b))
	}
	ts := a.Triples()
	ts = append(ts, b.Triples()...)
	out, err := FromTriples(a.Rows, a.Cols, ts, add)
	if err != nil {
		panic(err)
	}
	return out
}

// Mask returns the entries of m whose positions are also stored in mask
// (structural intersection, values taken from m). Both operands may be
// unsorted; the result has sorted columns. Used by triangle counting
// (C = (L·U) .* A).
func Mask(m, mask *CSC) *CSC {
	if m.Rows != mask.Rows || m.Cols != mask.Cols {
		panic(fmt.Sprintf("spmat: Mask shape mismatch %v vs %v", m, mask))
	}
	var ts []Triple
	marker := make(map[int32]struct{})
	for j := int32(0); j < m.Cols; j++ {
		rowsM, _ := mask.Column(j)
		if len(rowsM) == 0 {
			continue
		}
		clear(marker)
		for _, r := range rowsM {
			marker[r] = struct{}{}
		}
		rows, vals := m.Column(j)
		for p := range rows {
			if _, ok := marker[rows[p]]; ok {
				ts = append(ts, Triple{Row: rows[p], Col: j, Val: vals[p]})
			}
		}
	}
	out, err := FromTriples(m.Rows, m.Cols, ts, nil)
	if err != nil {
		panic(err)
	}
	return out
}

// Sum returns the sum of all stored values.
func (m *CSC) Sum() float64 {
	var s float64
	for _, v := range m.Val {
		s += v
	}
	return s
}

// Filter removes entries for which keep returns false, in place — the
// column pointers too, so it allocates nothing — preserving within-column
// order (and thus the SortedCols flag).
func (m *CSC) Filter(keep func(row, col int32, v float64) bool) {
	w, lo := int64(0), m.ColPtr[0]
	m.ColPtr[0] = 0
	for j := int32(0); j < m.Cols; j++ {
		// Column j's end is read before its slot takes the compacted end.
		hi := m.ColPtr[j+1]
		for p := lo; p < hi; p++ {
			if keep(m.RowIdx[p], j, m.Val[p]) {
				m.RowIdx[w] = m.RowIdx[p]
				m.Val[w] = m.Val[p]
				w++
			}
		}
		m.ColPtr[j+1] = w
		lo = hi
	}
	m.RowIdx = m.RowIdx[:w]
	m.Val = m.Val[:w]
	m.InvalidateNonEmptyCols() // filtering can empty columns
}

// DropZeros removes entries whose stored value is exactly zero.
func (m *CSC) DropZeros() {
	m.Filter(func(_, _ int32, v float64) bool { return v != 0 })
}
