package spmat

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// CSC is a sparse matrix in compressed sparse column format.
//
// Column j occupies RowIdx[ColPtr[j]:ColPtr[j+1]] and the parallel slice of
// Val. SortedCols records whether every column stores its row indices in
// strictly ascending order; the sort-free kernels of the paper produce
// unsorted columns and only the final Merge-Fiber output is sorted.
type CSC struct {
	Rows, Cols int32
	ColPtr     []int64
	RowIdx     []int32
	Val        []float64
	SortedCols bool

	// neCache memoizes NonEmptyCols as count+1 (0 = not yet computed). The
	// batched schedule broadcasts the same blocks once per batch, and both
	// the wire-encoding decision and the auto-format heuristic need the
	// count — computing the O(cols) scan once per block instead of once per
	// send is what keeps repeated broadcasts O(1) in the column dimension.
	// Mutating methods that can empty a column (Filter) reset it. Accessed
	// atomically: broadcast payloads are shared read-only across simulated
	// ranks, so concurrent receivers may fill the cache simultaneously (the
	// computation is idempotent; last write wins with the same value).
	neCache int64
}

// New returns an empty rows×cols matrix with no nonzeros. The result has
// sorted columns (vacuously).
func New(rows, cols int32) *CSC {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("spmat: negative dimension %dx%d", rows, cols))
	}
	return &CSC{
		Rows:       rows,
		Cols:       cols,
		ColPtr:     make([]int64, cols+1),
		RowIdx:     nil,
		Val:        nil,
		SortedCols: true,
	}
}

// Dims returns the logical shape.
func (m *CSC) Dims() (int32, int32) { return m.Rows, m.Cols }

// Sorted reports whether every column stores its rows in ascending order.
func (m *CSC) Sorted() bool { return m.SortedCols }

// Format identifies the concrete representation.
func (m *CSC) Format() Format { return FormatCSC }

// ToCSC returns the matrix itself.
func (m *CSC) ToCSC() *CSC { return m }

// CloneMat returns a deep copy in CSC form.
func (m *CSC) CloneMat() Matrix { return m.Clone() }

// EnumCols calls fn for every non-empty column in ascending order.
func (m *CSC) EnumCols(fn func(j int32, rows []int32, vals []float64)) {
	for j := int32(0); j < m.Cols; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		if lo < hi {
			fn(j, m.RowIdx[lo:hi], m.Val[lo:hi])
		}
	}
}

// NonEmptyCols returns the number of columns with at least one entry,
// computed once per matrix and memoized (see neCache).
func (m *CSC) NonEmptyCols() int64 {
	if c := atomic.LoadInt64(&m.neCache); c > 0 {
		return c - 1
	}
	var n int64
	for j := int32(0); j < m.Cols; j++ {
		if m.ColPtr[j+1] > m.ColPtr[j] {
			n++
		}
	}
	atomic.StoreInt64(&m.neCache, n+1)
	return n
}

// InvalidateNonEmptyCols drops the memoized non-empty-column count. Every
// in-place mutation that can change column occupancy after the count was
// first computed (Filter does, and any future mutator must) has to call this,
// or CommBytes/AutoFormat will keep using the stale count and the wire
// metering under/over-charges. Validate cross-checks the memo so a missed
// invalidation fails loudly in tests instead of silently mis-metering.
func (m *CSC) InvalidateNonEmptyCols() { atomic.StoreInt64(&m.neCache, 0) }

// NNZ returns the number of stored entries.
func (m *CSC) NNZ() int64 {
	if len(m.ColPtr) == 0 {
		return 0
	}
	return m.ColPtr[m.Cols]
}

// ColNNZ returns the number of stored entries in column j.
func (m *CSC) ColNNZ(j int32) int64 { return m.ColPtr[j+1] - m.ColPtr[j] }

// Column returns the row indices and values of column j as sub-slices of the
// matrix storage. Callers must not mutate them unless they own the matrix.
func (m *CSC) Column(j int32) ([]int32, []float64) {
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	return m.RowIdx[lo:hi], m.Val[lo:hi]
}

// RowCounts returns the number of stored entries per row.
func (m *CSC) RowCounts() []int64 {
	out := make([]int64, m.Rows)
	for _, r := range m.RowIdx {
		out[r]++
	}
	return out
}

// Clone returns a deep copy.
func (m *CSC) Clone() *CSC {
	c := &CSC{
		Rows:       m.Rows,
		Cols:       m.Cols,
		ColPtr:     append([]int64(nil), m.ColPtr...),
		RowIdx:     append([]int32(nil), m.RowIdx...),
		Val:        append([]float64(nil), m.Val...),
		SortedCols: m.SortedCols,
		neCache:    atomic.LoadInt64(&m.neCache),
	}
	return c
}

// Validate checks structural invariants: monotone ColPtr, in-range row
// indices, slice length agreement, and — when SortedCols is set — ascending
// row order with no duplicates inside each column.
func (m *CSC) Validate() error {
	if int32(len(m.ColPtr))-1 != m.Cols {
		return fmt.Errorf("spmat: ColPtr length %d does not match Cols %d", len(m.ColPtr), m.Cols)
	}
	if m.ColPtr[0] != 0 {
		return fmt.Errorf("spmat: ColPtr[0] = %d, want 0", m.ColPtr[0])
	}
	nnz := m.ColPtr[m.Cols]
	if int64(len(m.RowIdx)) != nnz || int64(len(m.Val)) != nnz {
		return fmt.Errorf("spmat: nnz %d disagrees with slices (%d rows, %d vals)", nnz, len(m.RowIdx), len(m.Val))
	}
	if c := atomic.LoadInt64(&m.neCache); c > 0 {
		var n int64
		for j := int32(0); j < m.Cols; j++ {
			if m.ColPtr[j+1] > m.ColPtr[j] {
				n++
			}
		}
		if c-1 != n {
			return fmt.Errorf("spmat: stale NonEmptyCols memo %d, actual %d (missing InvalidateNonEmptyCols after mutation?)", c-1, n)
		}
	}
	for j := int32(0); j < m.Cols; j++ {
		if m.ColPtr[j] > m.ColPtr[j+1] {
			return fmt.Errorf("spmat: ColPtr not monotone at column %d", j)
		}
		prev := int32(-1)
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			r := m.RowIdx[p]
			if r < 0 || r >= m.Rows {
				return fmt.Errorf("spmat: row index %d out of range [0,%d) in column %d", r, m.Rows, j)
			}
			if m.SortedCols {
				if r <= prev {
					return fmt.Errorf("spmat: column %d not strictly sorted (row %d after %d)", j, r, prev)
				}
				prev = r
			}
		}
	}
	return nil
}

// SortColumns sorts the row indices (and values) inside every column in
// ascending order, in place, and sets SortedCols. Duplicate row indices are
// preserved (use Compact to merge them).
func (m *CSC) SortColumns() {
	if m.SortedCols {
		return
	}
	var s PairSorter
	for j := int32(0); j < m.Cols; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		s.Sort(m.RowIdx[lo:hi], m.Val[lo:hi])
	}
	m.SortedCols = true
}

// Compact merges duplicate row indices within each column by summing their
// values with add (nil means ordinary +), dropping entries that become exactly
// zero is NOT done (structural zeros are kept out only if never stored). The
// matrix is sorted as a side effect.
func (m *CSC) Compact(add func(a, b float64) float64) {
	if add == nil {
		add = func(a, b float64) float64 { return a + b }
	}
	m.SortColumns()
	newPtr := make([]int64, m.Cols+1)
	w := int64(0)
	for j := int32(0); j < m.Cols; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		newPtr[j] = w
		for p := lo; p < hi; {
			r := m.RowIdx[p]
			v := m.Val[p]
			p++
			for p < hi && m.RowIdx[p] == r {
				v = add(v, m.Val[p])
				p++
			}
			m.RowIdx[w] = r
			m.Val[w] = v
			w++
		}
	}
	newPtr[m.Cols] = w
	m.ColPtr = newPtr
	m.RowIdx = m.RowIdx[:w]
	m.Val = m.Val[:w]
}

// At returns the stored value at (i, j), or 0 if no entry is stored. It is a
// debugging/testing helper and runs in O(nnz(column j)) for unsorted columns.
func (m *CSC) At(i, j int32) float64 {
	rows, vals := m.Column(j)
	if m.SortedCols {
		k := sort.Search(len(rows), func(p int) bool { return rows[p] >= i })
		if k < len(rows) && rows[k] == i {
			return vals[k]
		}
		return 0
	}
	for p, r := range rows {
		if r == i {
			return vals[p]
		}
	}
	return 0
}

// Equal reports whether two matrices represent the same values, independent
// of within-column ordering. Both operands are canonicalized on copies.
func Equal(a, b *CSC) bool {
	return approxEqual(a, b, 0)
}

// ApproxEqual reports whether a and b agree entry-wise within tol, again
// independent of within-column ordering.
func ApproxEqual(a, b *CSC, tol float64) bool {
	return approxEqual(a, b, tol)
}

func approxEqual(a, b *CSC, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	ca, cb := a, b
	if !ca.SortedCols || hasDuplicates(ca) {
		ca = ca.Clone()
		ca.Compact(nil)
	}
	if !cb.SortedCols || hasDuplicates(cb) {
		cb = cb.Clone()
		cb.Compact(nil)
	}
	if ca.NNZ() != cb.NNZ() {
		return false
	}
	for j := int32(0); j < ca.Cols; j++ {
		ra, va := ca.Column(j)
		rb, vb := cb.Column(j)
		if len(ra) != len(rb) {
			return false
		}
		for p := range ra {
			if ra[p] != rb[p] {
				return false
			}
			d := va[p] - vb[p]
			if d < -tol || d > tol {
				return false
			}
		}
	}
	return true
}

func hasDuplicates(m *CSC) bool {
	for j := int32(0); j < m.Cols; j++ {
		rows, _ := m.Column(j)
		for p := 1; p < len(rows); p++ {
			if rows[p] == rows[p-1] {
				return true
			}
		}
	}
	return false
}

// String returns a compact shape summary, e.g. "4096x4096, nnz=32768 (sorted)".
func (m *CSC) String() string {
	s := "unsorted"
	if m.SortedCols {
		s = "sorted"
	}
	return fmt.Sprintf("%dx%d, nnz=%d (%s)", m.Rows, m.Cols, m.NNZ(), s)
}

// BytesPerNonzero is the storage cost r used throughout the paper's memory
// accounting: a row index, a column index, and a float64 value (Sec. IV-A
// uses r = 24 with 16 bytes of indices; our indices are 4 bytes each, but we
// keep the paper's constant so the batch-count arithmetic matches).
const BytesPerNonzero = 24

// MemBytes returns the modeled memory footprint of the matrix under the
// paper's r-bytes-per-nonzero accounting.
func (m *CSC) MemBytes() int64 { return m.NNZ() * BytesPerNonzero }
