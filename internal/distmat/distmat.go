// Package distmat implements the paper's 3D matrix distributions (Fig 1) and
// the block-cyclic batch decomposition (Fig 1(i), Sec. IV-B).
//
// On a √(p/l) × √(p/l) × l grid with per-layer side q:
//
//   - A (and C) style: rows are split into q blocks; columns are split into q
//     block-columns, and each block-column is sliced into l contiguous pieces,
//     one per layer, so that layers respect the 2D process boundaries
//     (Fig 1(c)). The local Ã at (i,j,k) is (rows/q) × (cols/(q·l)).
//
//   - B style: transposed arrangement — columns form q blocks, rows form q
//     block-rows each sliced into l pieces (Fig 1(f)). The local B̃ is
//     (rows/(q·l)) × (cols/q).
//
// Batching splits the columns of B (and C) block-cyclically: within a block
// column of width w, chunks of blk = ⌈w/(b·l)⌉ consecutive columns are dealt
// out so chunk g belongs to batch (g mod b) and, within its batch, to layer
// (g div b) mod l. With b = 1 this degenerates to the contiguous layer slices
// of the A distribution, which is what keeps C "distributed similar to A"
// when no batching is needed.
//
// # Who copies what
//
// Distribution is the first of the few places the engine copies a nonzero
// (ARCHITECTURE.md, "Data path"). ADist.Split and BDist.Split deal a whole
// operand out to all p ranks in one count-then-place sweep on the host
// (spmat.SplitGrid): every entry is visited twice and copied once, and every
// block is allocated at its exact size directly in its resolved storage
// format. That happens once per operand per grid and format, not once per
// multiply, where the operand is kept: the daemon holds a resident matrix's
// blocks (core.Dealt) for every later job on the same grid and format.
// ADist.Count and BDist.Count run the sweep's count pass alone over the same
// bounds (spmat.CountGrid) and copy nothing: every piece's entries and
// occupied columns, which is what the planner and mtxinfo price a grid by.
// Local/LocalMat cut a single block out with the same routine over
// that block's own column range, for callers that want one block (tools,
// the benchmark's replay, a test rank cutting its own blocks): each call is
// self-contained, but ranks that share a column range each walk it, so p of
// them walk an A-style operand q times and a B-style one q·l times. Inside a
// batch nothing is gathered that need not be: a (batch, layer) pair owns one
// contiguous chunk of the block column, so BatchCols, BatchLayerCols and
// LayerBounds are arithmetic, and the fiber split cuts a merged batch at
// LayerBounds into its l pieces as views over the merged entries
// (spmat.MatColRanges) — with l = 1 the piece is the batch itself.
package distmat

import (
	"fmt"

	"repro/internal/spmat"
)

// ADist describes the A-style distribution of a rows×cols matrix on a q×q×l
// grid.
type ADist struct {
	Rows, Cols int32
	Q, L       int
	// RowB are the q+1 row block bounds; ColB the q+1 column block bounds.
	RowB, ColB []int32
}

// NewADist builds the A-style descriptor.
func NewADist(rows, cols int32, q, l int) *ADist {
	return &ADist{
		Rows: rows, Cols: cols, Q: q, L: l,
		RowB: spmat.PartBounds(rows, q),
		ColB: spmat.PartBounds(cols, q),
	}
}

// RowRangeOf returns the global row range [lo, hi) owned by process row i.
func (d *ADist) RowRangeOf(i int) (int32, int32) { return d.RowB[i], d.RowB[i+1] }

// ColSliceOf returns the global column range [lo, hi) owned by (·, j, k):
// slice k of block-column j.
func (d *ADist) ColSliceOf(j, k int) (int32, int32) {
	sb := sliceBounds(d.ColB[j:j+2], d.L)
	return sb[k], sb[k+1]
}

// ColSlices returns the q·l+1 column bounds Split deals by: slice k of
// block-column j is [out[j·l+k], out[j·l+k+1]).
func (d *ADist) ColSlices() []int32 { return sliceBounds(d.ColB, d.L) }

// Local extracts the piece of the global matrix owned by (i, j, k), with
// local (0-based) indices.
func (d *ADist) Local(global *spmat.CSC, i, j, k int) *spmat.CSC {
	return d.LocalMat(global, i, j, k, spmat.FormatCSC).(*spmat.CSC)
}

// LocalMat extracts the piece owned by (i, j, k) and stores it per f —
// a doubly-compressed block when the auto heuristic fires (the q·l-way
// column split is exactly what drives local blocks hypersparse at scale).
// Only the block's own columns are visited, and the block is built once, in
// its final format.
func (d *ADist) LocalMat(global *spmat.CSC, i, j, k int, f spmat.Format) spmat.Matrix {
	checkLayout(global, d.Rows, d.Cols)
	r0, r1 := d.RowRangeOf(i)
	c0, c1 := d.ColSliceOf(j, k)
	return spmat.SplitGrid(global, []int32{r0, r1}, []int32{c0, c1}, f)[0]
}

// Split deals the global matrix out to every rank at once: one sweep over
// the global matrix, where p LocalMat calls walk it q times between them.
// The piece LocalMat returns for (i, j, k) is element Index(i, j, k) of the
// result.
func (d *ADist) Split(global *spmat.CSC, f spmat.Format) []spmat.Matrix {
	checkLayout(global, d.Rows, d.Cols)
	return spmat.SplitGrid(global, d.RowB, d.ColSlices(), f)
}

// Count counts what Split deals without dealing it: the entries and the
// occupied columns of every piece, the piece of (i, j, k) at Index(i, j, k)
// — spmat.CountGrid over Split's own bounds.
func (d *ADist) Count(global *spmat.CSC) (nnz, ne []int64) {
	checkLayout(global, d.Rows, d.Cols)
	return spmat.CountGrid(global, d.RowB, d.ColSlices())
}

// Index is where Split puts the piece of (i, j, k).
func (d *ADist) Index(i, j, k int) int { return (i*d.Q+j)*d.L + k }

// sliceBounds refines q block bounds into the q·l+1 bounds of their layer
// slices: block b's slice k is [out[b·l+k], out[b·l+k+1]). It is the one
// place the q-blocks-of-l-slices cut is made.
func sliceBounds(blockB []int32, l int) []int32 {
	out := make([]int32, 0, (len(blockB)-1)*l+1)
	for b := 0; b+1 < len(blockB); b++ {
		sb := spmat.PartBounds(blockB[b+1]-blockB[b], l)
		for _, o := range sb[:l] {
			out = append(out, blockB[b]+o)
		}
	}
	return append(out, blockB[len(blockB)-1])
}

func checkLayout(global *spmat.CSC, rows, cols int32) {
	if global.Rows != rows || global.Cols != cols {
		panic(fmt.Sprintf("distmat: matrix %v does not match layout %dx%d", global, rows, cols))
	}
}

// BDist describes the B-style distribution of a rows×cols matrix on a q×q×l
// grid: rows sliced across layers, columns blocked.
type BDist struct {
	Rows, Cols int32
	Q, L       int
	RowB, ColB []int32
}

// NewBDist builds the B-style descriptor.
func NewBDist(rows, cols int32, q, l int) *BDist {
	return &BDist{
		Rows: rows, Cols: cols, Q: q, L: l,
		RowB: spmat.PartBounds(rows, q),
		ColB: spmat.PartBounds(cols, q),
	}
}

// RowSliceOf returns the global row range [lo, hi) owned by (i, ·, k): slice
// k of block-row i. It mirrors ADist.ColSliceOf so that A's inner-dimension
// slices align with B's (the SUMMA stages depend on this).
func (d *BDist) RowSliceOf(i, k int) (int32, int32) {
	sb := sliceBounds(d.RowB[i:i+2], d.L)
	return sb[k], sb[k+1]
}

// RowSlices returns the q·l+1 row bounds Split deals by: slice k of
// block-row i is [out[i·l+k], out[i·l+k+1]). They equal ADist.ColSlices
// over the same inner dimension.
func (d *BDist) RowSlices() []int32 { return sliceBounds(d.RowB, d.L) }

// ColRangeOf returns the global column range [lo, hi) owned by process
// column j.
func (d *BDist) ColRangeOf(j int) (int32, int32) { return d.ColB[j], d.ColB[j+1] }

// Local extracts the piece of the global matrix owned by (i, j, k).
func (d *BDist) Local(global *spmat.CSC, i, j, k int) *spmat.CSC {
	return d.LocalMat(global, i, j, k, spmat.FormatCSC).(*spmat.CSC)
}

// LocalMat extracts the piece owned by (i, j, k) and stores it per f (see
// ADist.LocalMat).
func (d *BDist) LocalMat(global *spmat.CSC, i, j, k int, f spmat.Format) spmat.Matrix {
	checkLayout(global, d.Rows, d.Cols)
	r0, r1 := d.RowSliceOf(i, k)
	c0, c1 := d.ColRangeOf(j)
	return spmat.SplitGrid(global, []int32{r0, r1}, []int32{c0, c1}, f)[0]
}

// Split deals the global matrix out to every rank at once — one sweep where
// p LocalMat calls walk the matrix q·l times between them; the piece of
// (i, j, k) is element Index(i, j, k) of the result.
func (d *BDist) Split(global *spmat.CSC, f spmat.Format) []spmat.Matrix {
	checkLayout(global, d.Rows, d.Cols)
	return spmat.SplitGrid(global, d.RowSlices(), d.ColB, f)
}

// Count counts what Split deals without dealing it, the piece of (i, j, k)
// at Index(i, j, k) (see ADist.Count).
func (d *BDist) Count(global *spmat.CSC) (nnz, ne []int64) {
	checkLayout(global, d.Rows, d.Cols)
	return spmat.CountGrid(global, d.RowSlices(), d.ColB)
}

// Index is where Split puts the piece of (i, j, k).
func (d *BDist) Index(i, j, k int) int { return (i*d.L+k)*d.Q + j }

// Batching is the block-cyclic batch/layer assignment for the columns of one
// block-column of B (equivalently C), per Sec. IV-B.
type Batching struct {
	// Width is the block-column width in columns.
	Width int32
	// B and L are the batch and layer counts.
	B, L int
	// Blk is the cyclic chunk width ⌈Width/(B·L)⌉ (minimum 1).
	Blk int32
}

// NewBatching computes the chunk width for a block column of the given width.
func NewBatching(width int32, b, l int) Batching {
	per := int64(b) * int64(l)
	blk := (int64(width) + per - 1) / per
	if blk < 1 {
		blk = 1
	}
	return Batching{Width: width, B: b, L: l, Blk: int32(blk)}
}

// chunk returns the offset range [lo, hi) of the chunk (batch t, layer k)
// owns. There is exactly one: Blk·B·L ≥ Width, so the block column holds at
// most B·L chunks and chunk g = k·B + t is the only one with g mod B = t and
// g div B = k. The range is empty when the block column ends before it.
func (bt Batching) chunk(t, k int) (lo, hi int32) {
	w, blk := int64(bt.Width), int64(bt.Blk)
	l := min((int64(k)*int64(bt.B)+int64(t))*blk, w)
	return int32(l), int32(min(l+blk, w))
}

// BatchWidth returns the number of columns in batch t.
func (bt Batching) BatchWidth(t int) int32 {
	var n int32
	for k := 0; k < bt.L; k++ {
		lo, hi := bt.chunk(t, k)
		n += hi - lo
	}
	return n
}

// BatchCols returns the local column offsets of batch t, ascending: its l
// chunks, in layer order.
func (bt Batching) BatchCols(t int) []int32 {
	out := make([]int32, 0, bt.BatchWidth(t))
	for k := 0; k < bt.L; k++ {
		lo, hi := bt.chunk(t, k)
		for o := lo; o < hi; o++ {
			out = append(out, o)
		}
	}
	return out
}

// BatchLayerCols returns the local column offsets owned by (batch t, layer k),
// ascending.
func (bt Batching) BatchLayerCols(t, k int) []int32 {
	lo, hi := bt.chunk(t, k)
	out := make([]int32, hi-lo)
	for x := range out {
		out[x] = lo + int32(x)
	}
	return out
}

// LayerBounds returns the l+1 bounds that cut a batch-local matrix of batch t
// (whose column x corresponds to BatchCols(t)[x]) by owning layer: layer k's
// columns are one chunk, so they are the consecutive range [bounds[k],
// bounds[k+1]).
func (bt Batching) LayerBounds(t int) []int32 {
	bounds := make([]int32, bt.L+1)
	for k := 0; k < bt.L; k++ {
		lo, hi := bt.chunk(t, k)
		bounds[k+1] = bounds[k] + hi - lo
	}
	return bounds
}

// SplitByLayerMat partitions the columns of a batch-local matrix (whose
// column x corresponds to BatchCols(t)[x]) into l pieces by owning layer,
// returning the pieces and, for bookkeeping, the local offsets each piece
// covers. The pieces are the column ranges LayerBounds gives, returned as
// views over m's entries (spmat.MatColRanges) — no entry is copied, and with
// l = 1 the piece is m itself. Each piece keeps m's concrete format, so a
// doubly-compressed Merge-Layer output is split for the fiber AllToAll
// without inflating dense column metadata.
func (bt Batching) SplitByLayerMat(m spmat.Matrix, t int) ([]spmat.Matrix, [][]int32) {
	bounds := bt.LayerBounds(t)
	if _, mc := m.Dims(); bounds[bt.L] != mc {
		panic(fmt.Sprintf("distmat: batch matrix has %d cols, batching expects %d", mc, bounds[bt.L]))
	}
	offsets := make([][]int32, bt.L)
	for k := range offsets {
		offsets[k] = bt.BatchLayerCols(t, k)
	}
	return spmat.MatColRanges(m, bounds), offsets
}
