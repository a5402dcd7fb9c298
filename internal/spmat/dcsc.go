package spmat

import (
	"fmt"
	"math/bits"
	"sync/atomic"
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
//
// Looking a column up by index goes through Buluç & Gilbert's AUX array
// (colIndex): the column range is cut into between nzc and 2·nzc equal
// power-of-two chunks and AUX holds the JC position each chunk starts at, so
// a lookup is a shift, two loads and a search among the handful of stored
// columns that share the chunk — O(1) expected, where a search over JC is
// O(log nzc). A multiply with this block as A looks up the column of every B
// entry's row, and does so once per block pair (Locate, called by the
// multiply's plan), not once per kernel pass. AUX is 4 bytes per chunk, built
// in one O(nzc) walk by the first lookup on the block and kept for its life.
// It depends on JC and Cols only, which nothing changes once a block is
// built (SortColumns permutes entries inside columns). It is not part of the
// matrix: the wire format, CommBytes and the modeled footprint
// (BlockMemBytes) do not know it exists — like the kernels' hash tables and
// worker scratch it is an accelerator the receiving side builds for itself,
// and the paper's r-bytes-per-nonzero model counts none of those.
type DCSC struct {
	Rows, Cols int32
	JC         []int32
	CP         []int64
	IR         []int32
	Num        []float64
	SortedCols bool

	// aux is the lazily built column index. Blocks are shared by reference
	// across rank goroutines, so the first lookups can race: each racer
	// builds the same index and the stores are atomic, whichever lands last.
	aux atomic.Pointer[colIndex]
}

// colIndex is the AUX array of one block: chunk c covers columns
// [c<<shift, (c+1)<<shift) and its stored columns are JC[start[c]:start[c+1]].
type colIndex struct {
	shift uint
	start []int32
}

// index returns the AUX array of a block with at least one stored column,
// building it on first use.
func (d *DCSC) index() *colIndex {
	if ix := d.aux.Load(); ix != nil {
		return ix
	}
	// The smallest chunk width that needs at most 2·nzc chunks: at least one
	// stored column per two chunks keeps AUX within 8 bytes per stored
	// column, and at most two expected per chunk keeps the search short.
	shift := uint(bits.Len64(uint64(d.Cols-1) / uint64(2*len(d.JC))))
	chunks := int((d.Cols-1)>>shift) + 1
	ix := &colIndex{shift: shift, start: make([]int32, chunks+1)}
	c := 0
	for p, j := range d.JC {
		for ; c <= int(j>>shift); c++ {
			ix.start[c] = int32(p)
		}
	}
	for ; c <= chunks; c++ {
		ix.start[c] = int32(len(d.JC))
	}
	d.aux.Store(ix)
	return ix
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

// find returns the position of column j in JC, or -1 when j is empty (or
// outside the matrix): Locate on a list of one.
func (d *DCSC) find(j int32) int {
	var p [1]int32
	d.Locate([]int32{j}, p[:])
	return int(p[0])
}

// Locate writes the position in JC of column cols[x] to pos[x], for every x,
// and -1 where that column is empty (or outside the matrix). Each lookup is
// the chunk of the column from the AUX array, then a search among the
// chunk's stored columns — halving while the chunk is long (every stored
// column can share one chunk), a scan once it is short. This is the one
// place the lookup is written, with the index loaded once for the list: a
// multiply calls it once per block pair, with B's row indices as the list,
// so each B entry's A column is looked up once however often the pair is
// then multiplied or counted. pos must be at least as long as cols.
func (d *DCSC) Locate(cols, pos []int32) {
	pos = pos[:len(cols)]
	if len(d.JC) == 0 {
		for x := range pos {
			pos[x] = -1
		}
		return
	}
	ix, jc, n := d.index(), d.JC, uint32(d.Cols)
	shift, start := ix.shift, ix.start
	for x, j := range cols {
		pos[x] = -1
		if uint32(j) >= n {
			continue
		}
		c := j >> shift
		lo, hi := int(start[c]), int(start[c+1])
		for hi-lo > 8 {
			if mid := int(uint(lo+hi) >> 1); jc[mid] < j {
				lo = mid + 1
			} else {
				hi = mid + 1
			}
		}
		for lo < hi && jc[lo] < j {
			lo++
		}
		if lo < hi && jc[lo] == j {
			pos[x] = int32(lo)
		}
	}
}

// ColNNZ returns the entry count of column j (0 for absent columns); O(1)
// expected.
func (d *DCSC) ColNNZ(j int32) int64 {
	p := d.find(j)
	if p < 0 {
		return 0
	}
	return d.CP[p+1] - d.CP[p]
}

// Column returns views of column j's rows and values (empty slices for
// absent columns); O(1) expected.
func (d *DCSC) Column(j int32) ([]int32, []float64) {
	p := d.find(j)
	if p < 0 {
		return nil, nil
	}
	lo, hi := d.CP[p], d.CP[p+1]
	return d.IR[lo:hi], d.Num[lo:hi]
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

// MatColSelect gathers the listed columns, in the given order, into a new
// matrix of the same concrete format — the format-preserving ColSelect used
// by batch extraction. Both formats size the output exactly before copying;
// for DCSC the cost is O(len(cols) + nnz selected), one AUX lookup per listed
// column.
func MatColSelect(m Matrix, cols []int32) Matrix {
	if c, ok := m.(*CSC); ok {
		return ColSelect(c, cols)
	}
	d := m.ToDCSC()
	var ne int
	var nnz int64
	for _, j := range cols {
		if n := d.ColNNZ(j); n > 0 {
			ne++
			nnz += n
		}
	}
	out := &DCSC{
		Rows: d.Rows, Cols: int32(len(cols)),
		JC:         make([]int32, 0, ne),
		CP:         make([]int64, 1, ne+1),
		IR:         make([]int32, 0, nnz),
		Num:        make([]float64, 0, nnz),
		SortedCols: d.SortedCols,
	}
	for k, j := range cols {
		if p := d.find(j); p >= 0 {
			lo, hi := d.CP[p], d.CP[p+1]
			out.JC = append(out.JC, int32(k))
			out.IR = append(out.IR, d.IR[lo:hi]...)
			out.Num = append(out.Num, d.Num[lo:hi]...)
			out.CP = append(out.CP, hi-lo+out.CP[len(out.CP)-1])
		}
	}
	return out
}

// MatColRanges cuts m's columns at the ascending bounds into len(bounds)-1
// contiguous pieces of m's concrete format — piece k is columns
// [bounds[k], bounds[k+1]) under local indices — in one pass over the stored
// columns. The pieces are views: each owns its column metadata and shares
// m's entry arrays (capacity-capped, so appending to a piece can never run
// into its neighbour), and a piece that covers every column is m itself.
// That is what the fiber split wants — the pieces of a merged product are
// only ever read, by the ranks they are sent to — and nothing that goes on
// to mutate entries in place should be built from them.
func MatColRanges(m Matrix, bounds []int32) []Matrix {
	_, cols := m.Dims()
	out := make([]Matrix, len(bounds)-1)
	c, isCSC := m.(*CSC)
	var d *DCSC
	if !isCSC {
		d = m.ToDCSC()
	}
	p := 0 // DCSC: first stored column not yet handed to a piece
	for k := range out {
		b0, b1 := bounds[k], bounds[k+1]
		if b0 < 0 || b1 < b0 || b1 > cols {
			panic(fmt.Sprintf("spmat: MatColRanges bounds %v out of range for %d columns", bounds, cols))
		}
		switch {
		case b0 == 0 && b1 == cols:
			out[k] = m
		case isCSC:
			lo, hi := c.ColPtr[b0], c.ColPtr[b1]
			ptr := make([]int64, b1-b0+1)
			for x := range ptr {
				ptr[x] = c.ColPtr[b0+int32(x)] - lo
			}
			out[k] = &CSC{Rows: c.Rows, Cols: b1 - b0, ColPtr: ptr, RowIdx: c.RowIdx[lo:hi:hi], Val: c.Val[lo:hi:hi], SortedCols: c.SortedCols}
		default:
			for p < len(d.JC) && d.JC[p] < b0 {
				p++
			}
			p0 := p
			for p < len(d.JC) && d.JC[p] < b1 {
				p++
			}
			lo, hi := d.CP[p0], d.CP[p]
			jc, cp := make([]int32, p-p0), make([]int64, p-p0+1)
			for x := range jc {
				jc[x] = d.JC[p0+x] - b0
				cp[x+1] = d.CP[p0+x+1] - lo
			}
			out[k] = &DCSC{Rows: d.Rows, Cols: b1 - b0, JC: jc, CP: cp, IR: d.IR[lo:hi:hi], Num: d.Num[lo:hi:hi], SortedCols: d.SortedCols}
		}
	}
	return out
}
