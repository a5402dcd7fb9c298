package spmat

import (
	"fmt"
	"slices"
)

// PartBounds partitions n items into parts nearly-equal contiguous ranges and
// returns the parts+1 boundaries. The first (n mod parts) ranges get one extra
// item, matching the block distribution used for process grids.
func PartBounds(n int32, parts int) []int32 {
	if parts <= 0 {
		panic(fmt.Sprintf("spmat: PartBounds with %d parts", parts))
	}
	bounds := make([]int32, parts+1)
	base := n / int32(parts)
	extra := n % int32(parts)
	for i := 0; i < parts; i++ {
		bounds[i+1] = bounds[i] + base
		if int32(i) < extra {
			bounds[i+1]++
		}
	}
	return bounds
}

// SplitGrid deals m out over a grid of row ranges × column ranges by counting
// and placing: one column range at a time, its entries are walked twice —
// once to find each entry's row part and count the parts' entries and
// occupied columns, once, while the range is still in cache, to place — and
// every entry is copied exactly once, straight into a block allocated at its
// exact size in its resolved format (f as WithFormat reads it: FormatAuto
// compresses a block when fewer than half its columns are occupied). This is
// how a whole operand is distributed over a process grid, and how one block
// is cut out of it: the bounds need not cover the matrix, and entries outside
// [rowB[0], rowB[last]) × [colB[0], colB[last]) are dropped.
//
// rowB and colB are ascending (PartBounds output, or any refinement of it).
// Block (r, c) — element r·(len(colB)-1)+c of the result — holds rows
// [rowB[r], rowB[r+1]) × columns [colB[c], colB[c+1]) under local indices,
// entries in m's order within each column, SortedCols as m has it.
func SplitGrid(m *CSC, rowB, colB []int32, f Format) []Matrix {
	nr, nc := len(rowB)-1, len(colB)-1
	if nr < 1 || nc < 1 || rowB[0] < 0 || rowB[nr] > m.Rows || colB[0] < 0 || colB[nc] > m.Cols {
		panic(fmt.Sprintf("spmat: SplitGrid bounds %v x %v do not fit %v", rowB, colB, m))
	}
	// fills holds the arrays of one column range's blocks while they fill:
	// ptr is ColPtr or CP, n the entries and nj the stored columns placed so
	// far, col the local column (+1) that placed the last one. The count pass
	// leaves the totals in n and nj.
	type fill struct {
		rows  []int32
		vals  []float64
		ptr   []int64
		jc    []int32
		n     int64
		nj    int
		col   int32
		hyper bool
	}
	fills := make([]fill, nr)
	// Both passes run flat over the range's entries — a loop per column would
	// mispredict its exit on every column of a hypersparse operand, whose
	// columns hold zero, one or two entries at random. colOf and partOf are
	// what the count pass works out for each entry and the place pass reads
	// back: its local column, and its row part (-1: outside the row range).
	// The row part is guessed from the bounds' mean spacing and corrected by
	// walking, which for PartBounds-style bounds is rarely a step.
	var colOf, partOf []int32
	scale := float64(nr) / float64(rowB[nr]-rowB[0]+1)
	out := make([]Matrix, nr*nc)
	for c := 0; c < nc; c++ {
		c0, c1 := colB[c], colB[c+1]
		lo, hi := m.ColPtr[c0], m.ColPtr[c1]
		rowIdx, val := m.RowIdx[lo:hi], m.Val[lo:hi]
		partOf = slices.Grow(partOf[:0], len(rowIdx))[:len(rowIdx)]
		colOf = slices.Grow(colOf[:0], len(rowIdx)+1)[:len(rowIdx)+1]
		// Mark each occupied column at its first entry: an empty column marks
		// the slot of the next occupied one (or the spare last slot) and is
		// overwritten by it. The running maximum of the marks is then every
		// entry's column.
		clear(colOf)
		for j := c0; j < c1; j++ {
			colOf[m.ColPtr[j]-lo] = j - c0
		}
		clear(fills)
		x := int32(0)
		for p, i := range rowIdx {
			x = max(x, colOf[p])
			colOf[p] = x
			if i < rowB[0] || i >= rowB[nr] {
				partOf[p] = -1
				continue
			}
			r := int(float64(i-rowB[0]) * scale)
			for i >= rowB[r+1] {
				r++
			}
			for i < rowB[r] {
				r--
			}
			partOf[p] = int32(r)
			st := &fills[r]
			st.n++
			if st.col != x+1 {
				st.col = x + 1
				st.nj++
			}
		}
		for r := range fills {
			st := &fills[r]
			rows, cols := rowB[r+1]-rowB[r], c1-c0
			st.rows, st.vals = make([]int32, st.n), make([]float64, st.n)
			if st.hyper = f != FormatCSC && (f == FormatDCSC || Hypersparse(int64(st.nj), cols)); st.hyper {
				st.jc, st.ptr = make([]int32, st.nj), make([]int64, st.nj+1)
				out[r*nc+c] = &DCSC{Rows: rows, Cols: cols, JC: st.jc, CP: st.ptr, IR: st.rows, Num: st.vals, SortedCols: m.SortedCols}
			} else {
				st.ptr = make([]int64, cols+1)
				out[r*nc+c] = &CSC{Rows: rows, Cols: cols, ColPtr: st.ptr, RowIdx: st.rows, Val: st.vals, SortedCols: m.SortedCols, neCache: int64(st.nj) + 1}
			}
			st.n, st.nj, st.col = 0, 0, 0
		}
		for p, r := range partOf {
			if r < 0 {
				continue
			}
			x, st := colOf[p], &fills[r]
			st.rows[st.n], st.vals[st.n] = rowIdx[p]-rowB[r], val[p]
			st.n++
			if !st.hyper {
				st.ptr[x+1] = st.n
				continue
			}
			if st.col != x+1 {
				st.col = x + 1
				st.jc[st.nj] = x
				st.nj++
			}
			st.ptr[st.nj] = st.n
		}
		for r := range fills {
			if st := &fills[r]; !st.hyper {
				// The pass set the end of every occupied column; an empty one
				// ends where its predecessor did.
				var end int64
				for x, e := range st.ptr {
					end = max(end, e)
					st.ptr[x] = end
				}
			}
		}
	}
	return out
}

// ColSplit splits m into parts matrices of contiguous column ranges
// (Alg 2 line 4 uses this to split D̃ for the fiber AllToAll).
func ColSplit(m *CSC, parts int) []*CSC {
	bounds := PartBounds(m.Cols, parts)
	out := make([]*CSC, parts)
	for i := 0; i < parts; i++ {
		out[i] = ColRange(m, bounds[i], bounds[i+1])
	}
	return out
}

// CyclicCols returns, for each of parts pieces, the list of columns assigned
// to that piece under a block-cyclic distribution with the given block width:
// column c belongs to piece (c/block) mod parts. The paper (Sec. IV-B) uses
// this to split B̃ into batches so that each batch contains l aligned blocks,
// balancing Merge-Fiber load.
func CyclicCols(cols int32, parts int, block int32) [][]int32 {
	if block <= 0 {
		block = 1
	}
	out := make([][]int32, parts)
	for c := int32(0); c < cols; c++ {
		p := int((c / block)) % parts
		out[p] = append(out[p], c)
	}
	return out
}

// ColSplitCyclic splits m into parts pieces block-cyclically with the given
// block width. Piece p holds the columns CyclicCols assigns to p, in order.
func ColSplitCyclic(m *CSC, parts int, block int32) []*CSC {
	lists := CyclicCols(m.Cols, parts, block)
	out := make([]*CSC, parts)
	for p := range lists {
		out[p] = ColSelect(m, lists[p])
	}
	return out
}
