package spmat

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
// occupied columns (the pass CountGrid runs alone), once, while the range is
// still in cache, to place — and every entry is copied exactly once,
// straight into a block allocated at its exact size in its resolved format
// (f as WithFormat reads it: FormatAuto compresses a block when fewer than
// half its columns are occupied). This is how a whole operand is distributed
// over a process grid, and how one block is cut out of it: the bounds need
// not cover the matrix, and entries outside [rowB[0], rowB[last]) ×
// [colB[0], colB[last]) are dropped.
//
// The deal runs on every core: min(column ranges, GOMAXPROCS) goroutines —
// the caller's one of them — take the column ranges in order off a shared
// counter, each with count-and-place scratch of its own. A column range's
// blocks are written by the goroutine that took it and by nothing else, so
// the blocks are the same, byte for byte, whatever the core count. A
// one-range call (a single block, as distmat's LocalMat cuts) starts no
// goroutine.
//
// rowB and colB are ascending (PartBounds output, or any refinement of it).
// Block (r, c) — element r·(len(colB)-1)+c of the result — holds rows
// [rowB[r], rowB[r+1]) × columns [colB[c], colB[c+1]) under local indices,
// entries in m's order within each column, SortedCols as m has it.
func SplitGrid(m *CSC, rowB, colB []int32, f Format) []Matrix {
	return splitGrid(m, rowB, colB, f, false)
}

// LendGrid is SplitGrid for a grid the caller gives back: every block is
// lent (Lend), its arrays — and a doubly-compressed block's AUX array, when a
// lookup builds it — drawn from the free list of arrays that Release fills,
// best fit, and allocated when nothing idle fits. A block sees exactly its
// lengths either way, but a drawn array may have up to twice the capacity,
// so a grid kept for long is SplitGrid's. The caller releases every block
// once nothing reads it, or drops the grid, which costs only the arrays'
// reuse.
func LendGrid(m *CSC, rowB, colB []int32, f Format) []Matrix {
	return splitGrid(m, rowB, colB, f, true)
}

func splitGrid(m *CSC, rowB, colB []int32, f Format, lend bool) []Matrix {
	nr, nc := gridShape(m, rowB, colB)
	out := make([]Matrix, nr*nc)
	dealRanges(m, rowB, colB, func(d *dealer, c int) {
		d.count(c)
		d.place(c, f, lend, out)
	})
	return out
}

// CountGrid counts what SplitGrid would deal over the same bounds without
// dealing it: the entries and the occupied columns of every block, in
// SplitGrid's block order. It is SplitGrid's count pass alone, on the same
// goroutines, so the counts are those of the blocks SplitGrid makes.
func CountGrid(m *CSC, rowB, colB []int32) (nnz, ne []int64) {
	nr, nc := gridShape(m, rowB, colB)
	nnz, ne = make([]int64, nr*nc), make([]int64, nr*nc)
	dealRanges(m, rowB, colB, func(d *dealer, c int) {
		d.count(c)
		for r, st := range d.fills {
			nnz[r*nc+c], ne[r*nc+c] = st.n, int64(st.nj)
		}
	})
	return nnz, ne
}

// gridShape checks that the bounds fit m and returns the grid's row and
// column range counts.
func gridShape(m *CSC, rowB, colB []int32) (nr, nc int) {
	nr, nc = len(rowB)-1, len(colB)-1
	if nr < 1 || nc < 1 || rowB[0] < 0 || rowB[nr] > m.Rows || colB[0] < 0 || colB[nc] > m.Cols {
		panic(fmt.Sprintf("spmat: grid bounds %v x %v do not fit %v", rowB, colB, m))
	}
	return nr, nc
}

// dealers keeps dealers, and the per-entry scratch they grew, from one deal
// or count to the next: a cold plan counts every candidate grid of its two
// operands, and a run deals them after it.
var dealers sync.Pool

// dealRanges runs each on every column range of the grid: min(column ranges,
// GOMAXPROCS) goroutines, the caller's among them, take the ranges in order
// off a shared counter, each with a dealer of its own.
func dealRanges(m *CSC, rowB, colB []int32, each func(d *dealer, c int)) {
	nr, nc := len(rowB)-1, len(colB)-1
	scale := float64(nr) / float64(rowB[nr]-rowB[0]+1)
	var next atomic.Int32
	deal := func() {
		d, _ := dealers.Get().(*dealer)
		if d == nil {
			d = new(dealer)
		}
		d.m, d.rowB, d.colB, d.scale = m, rowB, colB, scale
		d.fills = slices.Grow(d.fills[:0], nr)[:nr]
		for c := int(next.Add(1) - 1); c < nc; c = int(next.Add(1) - 1) {
			each(d, c)
		}
		clear(d.fills)
		d.m, d.rowB, d.colB = nil, nil, nil
		dealers.Put(d)
	}
	var wg sync.WaitGroup
	for range min(nc, runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deal()
		}()
	}
	deal()
	wg.Wait()
}

// fill holds the arrays of one block of a column range while they fill: ptr
// is ColPtr or CP, n the entries and nj the stored columns placed so far, col
// the local column (+1) that placed the last one. The count pass leaves the
// totals in n and nj.
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

// dealer is one goroutine's share of a SplitGrid or CountGrid: the grid it
// deals over and its own count-and-place scratch, reused from column range to
// column range.
//
// Both passes run flat over the range's entries — a loop per column would
// mispredict its exit on every column of a hypersparse operand, whose
// columns hold zero, one or two entries at random. colOf and partOf are what
// the count pass works out for each entry and the place pass reads back: its
// local column, and its row part (-1: outside the row range). The row part
// is guessed from the bounds' mean spacing (scale) and corrected by walking,
// which for PartBounds-style bounds is rarely a step.
type dealer struct {
	m          *CSC
	rowB, colB []int32
	scale      float64

	fills         []fill
	colOf, partOf []int32
}

// count walks column range c once, leaving each entry's local column and row
// part in colOf and partOf and every row part's entries and occupied columns
// in its fill's n and nj.
func (d *dealer) count(c int) {
	m, rowB, fills := d.m, d.rowB, d.fills
	nr := len(rowB) - 1
	c0, c1 := d.colB[c], d.colB[c+1]
	lo, hi := m.ColPtr[c0], m.ColPtr[c1]
	rowIdx := m.RowIdx[lo:hi]
	partOf := slices.Grow(d.partOf[:0], len(rowIdx))[:len(rowIdx)]
	colOf := slices.Grow(d.colOf[:0], len(rowIdx)+1)[:len(rowIdx)+1]
	d.partOf, d.colOf = partOf, colOf
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
		if uint32(i-rowB[0]) >= uint32(rowB[nr]-rowB[0]) { // outside the row window
			partOf[p] = -1
			continue
		}
		r := int(float64(i-rowB[0]) * d.scale)
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
}

// place allocates column range c's blocks of out at the sizes count left —
// drawing every array from the free list of arrays (Draw) when the deal is
// lent — and copies the range's entries into them, each block in its
// resolved format.
func (d *dealer) place(c int, f Format, lend bool, out []Matrix) {
	m, rowB, fills := d.m, d.rowB, d.fills
	nc := len(d.colB) - 1
	c0, c1 := d.colB[c], d.colB[c+1]
	lo, hi := m.ColPtr[c0], m.ColPtr[c1]
	rowIdx, val := m.RowIdx[lo:hi], m.Val[lo:hi]
	for r := range fills {
		st := &fills[r]
		rows, cols := rowB[r+1]-rowB[r], c1-c0
		st.rows, st.vals = dealtArray[int32](lend, int(st.n)), dealtArray[float64](lend, int(st.n))
		var jc []int32
		if st.hyper = f != FormatCSC && (f == FormatDCSC || Hypersparse(int64(st.nj), cols)); st.hyper {
			st.jc, st.ptr = dealtArray[int32](lend, st.nj), dealtArray[int64](lend, st.nj+1)
			st.ptr[0], jc = 0, st.jc
			out[r*nc+c] = &DCSC{Rows: rows, Cols: cols, JC: st.jc, CP: st.ptr, IR: st.rows, Num: st.vals, SortedCols: m.SortedCols}
		} else {
			st.ptr = dealtArray[int64](lend, int(cols)+1)
			if lend {
				// A drawn array holds a past deal's ends. The pass below sets
				// only the ends of occupied columns, and the scan after it
				// relies on zeros everywhere else.
				clear(st.ptr)
			}
			out[r*nc+c] = &CSC{Rows: rows, Cols: cols, ColPtr: st.ptr, RowIdx: st.rows, Val: st.vals, SortedCols: m.SortedCols, neCache: int64(st.nj) + 1}
		}
		if lend {
			Lend(out[r*nc+c], st.rows, st.vals, st.ptr, jc)
		}
		st.n, st.nj, st.col = 0, 0, 0
	}
	for p, r := range d.partOf {
		if r < 0 {
			continue
		}
		x, st := d.colOf[p], &fills[r]
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
