package spmat

import (
	"fmt"
	"sort"
)

// DCSC is a sparse matrix in doubly-compressed sparse column format
// (Buluç & Gilbert, "Highly Parallel Sparse Matrix-Matrix Multiplication"):
// only the non-empty columns carry metadata, so a hypersparse block —
// far more columns than nonzeros, the regime the paper's Rice-kmers AAᵀ
// lives in at high layer counts — costs O(nnz) instead of O(cols).
//
//	JC[p]            global index of the p-th non-empty column (ascending)
//	CP[p] : CP[p+1]  that column's range in IR/Num
//	IR, Num          row indices and values, column-major like CSC
//
// Column p of the compressed arrays is column JC[p] of the logical matrix;
// columns not listed in JC are empty. SortedCols means what it means for
// CSC: every stored column has strictly ascending rows.
type DCSC struct {
	Rows, Cols int32
	JC         []int32
	CP         []int64
	IR         []int32
	Num        []float64
	SortedCols bool
}

// NewDCSC returns an empty rows×cols matrix in doubly-compressed form.
func NewDCSC(rows, cols int32) *DCSC {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("spmat: negative dimension %dx%d", rows, cols))
	}
	return &DCSC{Rows: rows, Cols: cols, CP: []int64{0}, SortedCols: true}
}

// Dims returns the logical shape.
func (d *DCSC) Dims() (int32, int32) { return d.Rows, d.Cols }

// NNZ returns the number of stored entries.
func (d *DCSC) NNZ() int64 {
	if len(d.CP) == 0 {
		return 0
	}
	return d.CP[len(d.JC)]
}

// NonEmptyCols returns the number of occupied columns — the quantity DCSC
// keeps explicit, O(1) by construction.
func (d *DCSC) NonEmptyCols() int64 { return int64(len(d.JC)) }

// find returns the position of column j in JC, or -1 when j is empty.
func (d *DCSC) find(j int32) int {
	p := sort.Search(len(d.JC), func(i int) bool { return d.JC[i] >= j })
	if p < len(d.JC) && d.JC[p] == j {
		return p
	}
	return -1
}

// ColNNZ returns the entry count of column j (0 for absent columns);
// O(log nzc).
func (d *DCSC) ColNNZ(j int32) int64 {
	p := d.find(j)
	if p < 0 {
		return 0
	}
	return d.CP[p+1] - d.CP[p]
}

// Column returns views of column j's rows and values (empty slices for
// absent columns); O(log nzc).
func (d *DCSC) Column(j int32) ([]int32, []float64) {
	p := d.find(j)
	if p < 0 {
		return nil, nil
	}
	lo, hi := d.CP[p], d.CP[p+1]
	return d.IR[lo:hi], d.Num[lo:hi]
}

// ColumnAt returns the p-th stored column: its global index and views of its
// rows and values. Positional access is O(1) — the iteration primitive the
// hypersparse kernels build on.
func (d *DCSC) ColumnAt(p int) (j int32, rows []int32, vals []float64) {
	lo, hi := d.CP[p], d.CP[p+1]
	return d.JC[p], d.IR[lo:hi], d.Num[lo:hi]
}

// DCSCCursor is a positional column cursor: a stateful alternative to the
// per-call binary search of Column/ColNNZ for access patterns that are
// mostly ascending — exactly the A-side lookups of the generic SpGEMM inner
// loop, which walk a (sorted) B column's row indices in order. Consecutive
// ascending lookups cost amortized O(1) per stored column passed (a gallop
// from the previous position); a backward jump falls back to binary search
// over the prefix, so no pattern is ever worse than the O(log nzc) the
// cursor replaces. A cursor is single-goroutine state; concurrent workers
// each take their own with Cursor().
type DCSCCursor struct {
	d   *DCSC
	pos int
}

// Cursor returns a fresh cursor positioned before the first stored column.
func (d *DCSC) Cursor() DCSCCursor { return DCSCCursor{d: d} }

// find locates column j like DCSC.find but starting from the cursor
// position: a hit at pos is O(1), a forward miss gallops, a backward miss
// binary-searches the prefix. The cursor always lands on the first stored
// column ≥ j, so an ascending scan never revisits ground already passed.
func (c *DCSCCursor) find(j int32) int {
	jc := c.d.JC
	n := len(jc)
	lo, hi := 0, n
	if c.pos < n {
		switch {
		case jc[c.pos] == j:
			return c.pos
		case jc[c.pos] < j:
			// Gallop: double the step until it overshoots, then search the
			// last window. The window start stays unverified (Search copes).
			lo = c.pos + 1
			step := 1
			for lo+step < n && jc[lo+step] < j {
				lo += step
				step <<= 1
			}
			if w := lo + step + 1; w < hi {
				hi = w
			}
		default: // jc[c.pos] > j: the target is in the prefix.
			hi = c.pos
		}
	}
	p := lo + sort.Search(hi-lo, func(i int) bool { return jc[lo+i] >= j })
	c.pos = p
	if p < n && jc[p] == j {
		return p
	}
	return -1
}

// ColNNZ returns the entry count of column j (0 for absent columns),
// advancing the cursor.
func (c *DCSCCursor) ColNNZ(j int32) int64 {
	p := c.find(j)
	if p < 0 {
		return 0
	}
	return c.d.CP[p+1] - c.d.CP[p]
}

// Column returns views of column j's rows and values (empty for absent
// columns), advancing the cursor.
func (c *DCSCCursor) Column(j int32) ([]int32, []float64) {
	p := c.find(j)
	if p < 0 {
		return nil, nil
	}
	lo, hi := c.d.CP[p], c.d.CP[p+1]
	return c.d.IR[lo:hi], c.d.Num[lo:hi]
}

// EnumCols calls fn for every non-empty column in ascending order.
func (d *DCSC) EnumCols(fn func(j int32, rows []int32, vals []float64)) {
	for p := range d.JC {
		lo, hi := d.CP[p], d.CP[p+1]
		fn(d.JC[p], d.IR[lo:hi], d.Num[lo:hi])
	}
}

// Sorted reports whether every stored column has ascending rows.
func (d *DCSC) Sorted() bool { return d.SortedCols }

// SortColumns sorts rows (and values) inside every stored column, in place.
func (d *DCSC) SortColumns() {
	if d.SortedCols {
		return
	}
	var s PairSorter
	for p := range d.JC {
		lo, hi := d.CP[p], d.CP[p+1]
		s.Sort(d.IR[lo:hi], d.Num[lo:hi])
	}
	d.SortedCols = true
}

// Format identifies the concrete representation.
func (d *DCSC) Format() Format { return FormatDCSC }

// ToDCSC returns the matrix itself.
func (d *DCSC) ToDCSC() *DCSC { return d }

// ToCSC inflates to dense column pointers; O(cols + nnz). This is the step
// the hypersparse paths exist to avoid — only edges of the system (final
// assembly, user-facing pieces) should pay it.
func (d *DCSC) ToCSC() *CSC {
	m := &CSC{
		Rows:       d.Rows,
		Cols:       d.Cols,
		ColPtr:     make([]int64, d.Cols+1),
		RowIdx:     append([]int32(nil), d.IR...),
		Val:        append([]float64(nil), d.Num...),
		SortedCols: d.SortedCols,
		neCache:    int64(len(d.JC)) + 1,
	}
	p := 0
	for j := int32(0); j < d.Cols; j++ {
		if p < len(d.JC) && d.JC[p] == j {
			p++
		}
		m.ColPtr[j+1] = d.CP[p]
	}
	return m
}

// CloneMat returns a deep copy in DCSC form.
func (d *DCSC) CloneMat() Matrix { return d.Clone() }

// Clone returns a deep copy.
func (d *DCSC) Clone() *DCSC {
	return &DCSC{
		Rows: d.Rows, Cols: d.Cols,
		JC:         append([]int32(nil), d.JC...),
		CP:         append([]int64(nil), d.CP...),
		IR:         append([]int32(nil), d.IR...),
		Num:        append([]float64(nil), d.Num...),
		SortedCols: d.SortedCols,
	}
}

// Validate checks structural invariants: strictly ascending JC, monotone CP,
// no empty stored columns, in-range indices, slice agreement, and — when
// SortedCols — ascending duplicate-free rows per stored column.
func (d *DCSC) Validate() error {
	if len(d.CP) != len(d.JC)+1 {
		return fmt.Errorf("spmat: DCSC CP length %d does not match %d stored columns", len(d.CP), len(d.JC))
	}
	if d.CP[0] != 0 {
		return fmt.Errorf("spmat: DCSC CP[0] = %d, want 0", d.CP[0])
	}
	nnz := d.CP[len(d.JC)]
	if int64(len(d.IR)) != nnz || int64(len(d.Num)) != nnz {
		return fmt.Errorf("spmat: DCSC nnz %d disagrees with slices (%d rows, %d vals)", nnz, len(d.IR), len(d.Num))
	}
	for p := range d.JC {
		j := d.JC[p]
		if j < 0 || j >= d.Cols {
			return fmt.Errorf("spmat: DCSC column index %d out of range [0,%d)", j, d.Cols)
		}
		if p > 0 && d.JC[p-1] >= j {
			return fmt.Errorf("spmat: DCSC JC not strictly ascending at position %d", p)
		}
		if d.CP[p] >= d.CP[p+1] {
			return fmt.Errorf("spmat: DCSC stored column %d is empty or CP non-monotone", j)
		}
		prev := int32(-1)
		for q := d.CP[p]; q < d.CP[p+1]; q++ {
			r := d.IR[q]
			if r < 0 || r >= d.Rows {
				return fmt.Errorf("spmat: DCSC row index %d out of range [0,%d) in column %d", r, d.Rows, j)
			}
			if d.SortedCols {
				if r <= prev {
					return fmt.Errorf("spmat: DCSC column %d not strictly sorted (row %d after %d)", j, r, prev)
				}
				prev = r
			}
		}
	}
	return nil
}

// MemBytes returns the modeled memory footprint under the paper's default
// r; see BlockMemBytes for the model.
func (d *DCSC) MemBytes() int64 {
	return BlockMemBytes(d, BytesPerNonzero)
}

// BlockMemBytes models one block's memory footprint under a configurable
// bytes-per-nonzero constant r — the single source of truth shared by
// Matrix.MemBytes, the symbolic step's batch decision, and the experiment
// layer. CSC keeps the paper's flat accounting, r bytes per nonzero
// (Sec. IV-A's constant folds dense per-column metadata into the
// per-nonzero cost). DCSC charges the entry payload at r/2 per nonzero (a
// 4-byte row index plus an 8-byte value at the default r = 24) plus 12
// bytes per non-empty column (a 4-byte column index plus an 8-byte
// pointer) and the CP sentinel. For hypersparse blocks (≥2 nnz per
// occupied column) the explicit accounting is strictly smaller, which is
// exactly what lets the memory-constrained symbolic step (Alg 3 line 12)
// choose fewer batches.
func BlockMemBytes(m Matrix, r int64) int64 {
	return MemBytesModel(m.Format(), m.NNZ(), m.NonEmptyCols(), r)
}

// MemBytesModel is the numeric core of BlockMemBytes: the modeled footprint
// of a block with nnz entries in ne non-empty columns stored in format f,
// under r bytes per nonzero. Exposed separately so cost predictors (the
// planner) can evaluate footprints from block statistics without
// materializing a block. FormatAuto applies the Hypersparse-style per-block
// choice a caller cannot make without the column count, so it is rejected —
// resolve the format first.
func MemBytesModel(f Format, nnz, ne, r int64) int64 {
	if f == FormatDCSC {
		return (r/2)*nnz + 12*ne + 8
	}
	return r * nnz
}

// String returns a compact shape summary.
func (d *DCSC) String() string {
	s := "unsorted"
	if d.SortedCols {
		s = "sorted"
	}
	return fmt.Sprintf("%dx%d, nnz=%d, nzc=%d (dcsc, %s)", d.Rows, d.Cols, d.NNZ(), d.NonEmptyCols(), s)
}

// ToDCSC compresses the matrix; O(cols + nnz), done once per block at
// distribution (or decode) time.
func (m *CSC) ToDCSC() *DCSC {
	ne := m.NonEmptyCols()
	d := &DCSC{
		Rows: m.Rows, Cols: m.Cols,
		JC:         make([]int32, 0, ne),
		CP:         make([]int64, 1, ne+1),
		IR:         append([]int32(nil), m.RowIdx...),
		Num:        append([]float64(nil), m.Val...),
		SortedCols: m.SortedCols,
	}
	for j := int32(0); j < m.Cols; j++ {
		if m.ColPtr[j+1] > m.ColPtr[j] {
			d.JC = append(d.JC, j)
			d.CP = append(d.CP, m.ColPtr[j+1])
		}
	}
	return d
}

// MatColSelect gathers the listed columns (ascending order required for
// DCSC inputs) into a new matrix of the same concrete format — the
// format-preserving ColSelect used by batch extraction and the fiber split.
// For DCSC the cost is O(nzc + len(cols) + nnz selected): one merged walk
// over JC and the selection, never a per-column binary search.
func MatColSelect(m Matrix, cols []int32) Matrix {
	if c, ok := m.(*CSC); ok {
		return ColSelect(c, cols)
	}
	d := m.ToDCSC()
	out := &DCSC{
		Rows: d.Rows, Cols: int32(len(cols)),
		CP:         make([]int64, 1, len(cols)+1),
		SortedCols: d.SortedCols,
	}
	p := 0
	for k, j := range cols {
		if k > 0 && cols[k-1] >= j {
			// Fall back for non-ascending selections (no current caller).
			return matColSelectUnordered(d, cols)
		}
		for p < len(d.JC) && d.JC[p] < j {
			p++
		}
		if p == len(d.JC) || d.JC[p] != j {
			continue
		}
		lo, hi := d.CP[p], d.CP[p+1]
		out.JC = append(out.JC, int32(k))
		out.IR = append(out.IR, d.IR[lo:hi]...)
		out.Num = append(out.Num, d.Num[lo:hi]...)
		out.CP = append(out.CP, int64(len(out.IR)))
	}
	return out
}

// matColSelectUnordered handles arbitrary selection order with per-column
// lookups.
func matColSelectUnordered(d *DCSC, cols []int32) Matrix {
	out := &DCSC{
		Rows: d.Rows, Cols: int32(len(cols)),
		CP:         make([]int64, 1, len(cols)+1),
		SortedCols: d.SortedCols,
	}
	for k, j := range cols {
		rows, vals := d.Column(j)
		if len(rows) == 0 {
			continue
		}
		out.JC = append(out.JC, int32(k))
		out.IR = append(out.IR, rows...)
		out.Num = append(out.Num, vals...)
		out.CP = append(out.CP, int64(len(out.IR)))
	}
	return out
}
