package spmat

import (
	"encoding/binary"
	"fmt"
	"math"
)

// DenseMat is a row-major dense matrix, the tall-skinny operand of the
// sparse×dense (SpMM) engine: B and C in C = A·B where A is sparse and B has
// few columns (GNN feature blocks, embedding panels). Row-major is the layout
// SpMM wants — the kernel's inner loop walks one row of B for every stored
// entry of A, so the row must be contiguous.
type DenseMat struct {
	Rows, Cols int32
	// Val holds Rows*Cols values; entry (i, j) lives at Val[i*Cols+j].
	Val []float64
}

// NewDense returns a zeroed rows×cols dense matrix.
func NewDense(rows, cols int32) *DenseMat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("spmat: NewDense(%d, %d)", rows, cols))
	}
	return &DenseMat{Rows: rows, Cols: cols, Val: make([]float64, int64(rows)*int64(cols))}
}

// Dims returns (rows, cols).
func (d *DenseMat) Dims() (int32, int32) { return d.Rows, d.Cols }

// At returns entry (i, j).
func (d *DenseMat) At(i, j int32) float64 { return d.Val[int64(i)*int64(d.Cols)+int64(j)] }

// Set assigns entry (i, j).
func (d *DenseMat) Set(i, j int32, v float64) { d.Val[int64(i)*int64(d.Cols)+int64(j)] = v }

// RowSlice returns row i as a contiguous slice (aliasing d.Val).
func (d *DenseMat) RowSlice(i int32) []float64 {
	off := int64(i) * int64(d.Cols)
	return d.Val[off : off+int64(d.Cols)]
}

// Clone deep-copies the matrix.
func (d *DenseMat) Clone() *DenseMat {
	out := &DenseMat{Rows: d.Rows, Cols: d.Cols, Val: make([]float64, len(d.Val))}
	copy(out.Val, d.Val)
	return out
}

// DenseEqual reports bitwise equality: same shape and every value identical
// at the Float64bits level, the comparison the differential SpMM tests use
// (it distinguishes -0 from +0 and compares NaNs by payload, like
// spmat.Equal's role on the sparse side).
func DenseEqual(a, b *DenseMat) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Val {
		if math.Float64bits(v) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// DenseApproxEqual reports shape equality and per-entry agreement within tol.
func DenseApproxEqual(a, b *DenseMat, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Val {
		if math.Abs(v-b.Val[i]) > tol {
			return false
		}
	}
	return true
}

// String describes the matrix, e.g. "1024x32 dense".
func (d *DenseMat) String() string { return fmt.Sprintf("%dx%d dense", d.Rows, d.Cols) }

// DenseMemBytes is the modeled in-memory footprint of a rows×cols dense
// block: 8 bytes per value. It is the dense counterpart of MemBytesModel and
// what the 1.5D planner charges for resident B panels and C accumulators.
func DenseMemBytes(rows, cols int32) int64 { return 8 * int64(rows) * int64(cols) }

// MemBytes returns the in-memory footprint.
func (d *DenseMat) MemBytes() int64 { return DenseMemBytes(d.Rows, d.Cols) }

// The dense wire format is deliberately separate from (and simpler than) the
// sparse one:
//
//	[0:4)  rows  (int32 LE)
//	[4:8)  cols  (int32 LE)
//	[8]    flags (must be zero; reserved)
//
// followed by rows·cols float64 values, row-major. There is no nnz field and
// no index payload — a dense panel's size is fully determined by its shape.
const denseHeader = 9

// DenseWireBytesFor returns the wire size of a rows×cols dense block — the
// sizing the planner uses so modeled 1.5D communication volume is
// byte-identical to what the meters charge.
func DenseWireBytesFor(rows, cols int32) int64 {
	return denseHeader + 8*int64(rows)*int64(cols)
}

// CommBytes returns the wire size; DenseMat implements mpi.Payload with it.
func (d *DenseMat) CommBytes() int64 { return DenseWireBytesFor(d.Rows, d.Cols) }

// Serialize encodes the matrix into the dense wire format above.
func (d *DenseMat) Serialize() []byte {
	buf := make([]byte, DenseWireBytesFor(d.Rows, d.Cols))
	binary.LittleEndian.PutUint32(buf[0:], uint32(d.Rows))
	binary.LittleEndian.PutUint32(buf[4:], uint32(d.Cols))
	off := denseHeader
	for _, v := range d.Val {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	return buf
}

// DeserializeDense decodes a matrix from the dense wire format. Like the
// sparse decoder it validates the header before trusting any size arithmetic
// derived from it: rows·cols on a hostile header would overflow int64 and
// could otherwise alias a small buffer's length.
func DeserializeDense(buf []byte) (*DenseMat, error) {
	if len(buf) < denseHeader {
		return nil, fmt.Errorf("spmat: serialized dense matrix truncated (%d bytes)", len(buf))
	}
	rows := int32(binary.LittleEndian.Uint32(buf[0:]))
	cols := int32(binary.LittleEndian.Uint32(buf[4:]))
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("spmat: serialized dense matrix has negative shape %dx%d", rows, cols)
	}
	if buf[8] != 0 {
		return nil, fmt.Errorf("spmat: serialized dense matrix has unknown flags 0x%02x", buf[8])
	}
	// Bound each dimension by the payload size before multiplying them: the
	// product of two hostile int32s can exceed int64(len(buf)) while wrapping
	// any int32 arithmetic, so the comparison must happen in int64 on the
	// unmultiplied factors first.
	avail := int64(len(buf)-denseHeader) / 8
	if rows > 0 && int64(cols) > avail/int64(rows) {
		return nil, fmt.Errorf("spmat: serialized dense shape %dx%d exceeds buffer capacity (%d bytes)", rows, cols, len(buf))
	}
	n := int64(rows) * int64(cols)
	want := denseHeader + 8*n
	if int64(len(buf)) != want {
		return nil, fmt.Errorf("spmat: serialized dense matrix has %d bytes, want %d", len(buf), want)
	}
	d := &DenseMat{Rows: rows, Cols: cols, Val: make([]float64, n)}
	off := denseHeader
	for i := range d.Val {
		d.Val[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return d, nil
}

// DenseRowView returns rows [lo, hi) as a zero-copy view aliasing d.Val —
// row-major storage makes a row range contiguous. Mutating the view mutates
// d; the SpMM inner loops use it to address the operand rows one ring block
// covers without copying the panel.
func DenseRowView(d *DenseMat, lo, hi int32) *DenseMat {
	if lo < 0 || hi < lo || hi > d.Rows {
		panic(fmt.Sprintf("spmat: DenseRowView [%d,%d) of %d rows", lo, hi, d.Rows))
	}
	return &DenseMat{
		Rows: hi - lo, Cols: d.Cols,
		Val: d.Val[int64(lo)*int64(d.Cols) : int64(hi)*int64(d.Cols)],
	}
}

// DenseColRange returns columns [lo, hi) as a new matrix.
func DenseColRange(d *DenseMat, lo, hi int32) *DenseMat {
	if lo < 0 || hi < lo || hi > d.Cols {
		panic(fmt.Sprintf("spmat: DenseColRange [%d,%d) of %d cols", lo, hi, d.Cols))
	}
	out := NewDense(d.Rows, hi-lo)
	for i := int32(0); i < d.Rows; i++ {
		copy(out.RowSlice(i), d.RowSlice(i)[lo:hi])
	}
	return out
}

// DenseHCat concatenates equally-tall parts left to right, the dense
// counterpart of HCat used to assemble batched SpMM outputs.
func DenseHCat(parts []*DenseMat) *DenseMat {
	if len(parts) == 0 {
		return NewDense(0, 0)
	}
	rows := parts[0].Rows
	var cols int32
	for _, p := range parts {
		if p.Rows != rows {
			panic(fmt.Sprintf("spmat: DenseHCat row mismatch %d vs %d", p.Rows, rows))
		}
		cols += p.Cols
	}
	out := NewDense(rows, cols)
	for i := int32(0); i < rows; i++ {
		dst := out.RowSlice(i)
		off := int32(0)
		for _, p := range parts {
			copy(dst[off:off+p.Cols], p.RowSlice(i))
			off += p.Cols
		}
	}
	return out
}

// CopyInto writes d into dst with its (0,0) entry at (r0, c0). The 1.5D
// drivers use it to assemble the global product from per-rank panels.
func (d *DenseMat) CopyInto(dst *DenseMat, r0, c0 int32) {
	if r0 < 0 || c0 < 0 || r0+d.Rows > dst.Rows || c0+d.Cols > dst.Cols {
		panic(fmt.Sprintf("spmat: CopyInto %dx%d at (%d,%d) of %dx%d", d.Rows, d.Cols, r0, c0, dst.Rows, dst.Cols))
	}
	for i := int32(0); i < d.Rows; i++ {
		copy(dst.RowSlice(r0 + i)[c0:c0+d.Cols], d.RowSlice(i))
	}
}

// AddInto accumulates d into dst at (r0, c0) entry-wise.
func (d *DenseMat) AddInto(dst *DenseMat, r0, c0 int32) {
	if r0 < 0 || c0 < 0 || r0+d.Rows > dst.Rows || c0+d.Cols > dst.Cols {
		panic(fmt.Sprintf("spmat: AddInto %dx%d at (%d,%d) of %dx%d", d.Rows, d.Cols, r0, c0, dst.Rows, dst.Cols))
	}
	for i := int32(0); i < d.Rows; i++ {
		src := d.RowSlice(i)
		row := dst.RowSlice(r0 + i)[c0:]
		for j := range src {
			row[j] += src[j]
		}
	}
}

// DenseFromCSC expands a sparse matrix into a dense one.
func DenseFromCSC(m *CSC) *DenseMat {
	out := NewDense(m.Rows, m.Cols)
	for j := int32(0); j < m.Cols; j++ {
		rows, vals := m.Column(j)
		for k, i := range rows {
			out.Val[int64(i)*int64(m.Cols)+int64(j)] += vals[k]
		}
	}
	return out
}

// ToCSC converts the dense matrix to CSC, keeping explicit nonzeros only.
// The SUMMA arm of the sparse×dense engine uses it to run a dense operand
// through the sparse pipeline.
func (d *DenseMat) ToCSC() *CSC {
	counts := make([]int64, d.Cols)
	for i := int32(0); i < d.Rows; i++ {
		row := d.RowSlice(i)
		for j, v := range row {
			if v != 0 {
				counts[j]++
			}
		}
	}
	m := &CSC{Rows: d.Rows, Cols: d.Cols, ColPtr: make([]int64, d.Cols+1), SortedCols: true}
	var nnz int64
	for j, c := range counts {
		m.ColPtr[j] = nnz
		nnz += c
	}
	m.ColPtr[d.Cols] = nnz
	m.RowIdx = make([]int32, nnz)
	m.Val = make([]float64, nnz)
	next := make([]int64, d.Cols)
	copy(next, m.ColPtr[:d.Cols])
	for i := int32(0); i < d.Rows; i++ {
		row := d.RowSlice(i)
		for j, v := range row {
			if v != 0 {
				p := next[j]
				m.RowIdx[p] = i
				m.Val[p] = v
				next[j] = p + 1
			}
		}
	}
	return m
}
