package localmm

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// MulMerge is the last SUMMA stage's multiply and Merge-Layer in one pass:
// MergeMat(mg, append(prev, window), sr, sortOutput, threads), where window is
// the columns [lo, hi) of pl.Mul(k, sr, ·) — spmat.MatColRanges of the
// product, or the product itself when the window is all of B — without the
// product ever existing. It returns the merged output and the number of
// entries the window of the product would have held. prev are the earlier
// stage products of the same window (or their windows), each rows × (hi − lo),
// any formats, each column holding a row at most once, as every kernel's and
// merger's output does.
//
// The output is bit-identical to that merge's: values, stored entry order,
// format and sorted flag. Column by column, the product's contributions are
// accumulated in the worker's table, as the kernel would, and merged there
// with the earlier parts:
//
//   - Under the hash merger, with at most one earlier part in the column and
//     a column the kernel hashes, the table is the merge's too. With no part
//     it is drained as the merge would drain the product's column alone. A
//     sorted drain inserts the part into the table as the first operand and
//     walks the table ascending; an unsorted one walks the part against the
//     table, emitting part + table where the table holds the row, then
//     drains the rows the part did not meet in the kernel's order
//     (walkFirst).
//   - Otherwise — more earlier parts, the heap merger, or a column the kernel
//     heap-merges — the product's column is made into the worker's column
//     scratch in the order the merge would read it (sorted for the heap
//     merger), and the merger's own column routine runs over [parts…,
//     scratch], as MergeMat runs it.
//
// The plan stays the caller's: a pipelined Merge-Layer calls this once per
// destination window, then releases the plan.
func (pl *Plan) MulMerge(k Kernel, mg Merger, prev []spmat.Matrix, lo, hi int32, sr *semiring.Semiring, sortOutput bool, threads int) (spmat.Matrix, int64) {
	out, _, nnz := pl.mulMerge(k, mg, prev, lo, hi, sr, sortOutput, threads, ownedOutput)
	return out, nnz
}

// MulMergeLent is MulMerge for an output that is read and dropped, lent as
// MergeLent lends: when the pass ran one range, the output's entry arrays are
// the worker's chunk itself, on loan until the caller hands it back with
// Loan.Return; a pass that ran several ranges returns owned arrays and an
// empty Loan. The output shares nothing with the plan or with prev.
func (pl *Plan) MulMergeLent(k Kernel, mg Merger, prev []spmat.Matrix, lo, hi int32, sr *semiring.Semiring, sortOutput bool, threads int) (spmat.Matrix, Loan, int64) {
	return pl.mulMerge(k, mg, prev, lo, hi, sr, sortOutput, threads, lentOutput)
}

// mulMerge is MulMerge and MulMergeLent, which differ only in what the one
// pass does with a single range's chunk (mode).
func (pl *Plan) mulMerge(k Kernel, mg Merger, prev []spmat.Matrix, lo, hi int32, sr *semiring.Semiring, sortOutput bool, threads int, mode passOutput) (spmat.Matrix, Loan, int64) {
	rows, _ := pl.a.Dims()
	if _, bCols := pl.b.Dims(); lo < 0 || hi < lo || hi > bCols {
		panic(fmt.Sprintf("localmm: window [%d, %d) of a product %d columns wide", lo, hi, bCols))
	}
	cols := hi - lo
	for _, m := range prev {
		if r, c := m.Dims(); r != rows || c != cols {
			panic(fmt.Sprintf("localmm: merge shape mismatch %v vs %dx%d", m, rows, cols))
		}
	}
	// A hash merge of the window alone passes the product through, sorted
	// flag and all.
	sorted := sortOutput || mg == MergerHeap || len(prev) == 0 && k.sorts()
	if mg == MergerHeap {
		sortOutput = true
		prev = sortedOperands(prev)
	}
	av, last := pl.kernelView(k), len(prev)
	views := make([]colView, last+1)
	for i, m := range prev {
		views[i] = viewOf(m)
	}
	// The window of the product is one more operand, in B's format, whose
	// slot i is B's slot p0 + i and whose entry counts are the slots' flops:
	// a product column has entries exactly where it has flops, and no more
	// entries than flops. Its arrays, and the slots' input entries, are the
	// plan's scratch: they live for the call.
	bv, sc := &pl.bv, pl.scratch
	p0, p1 := pl.window(lo, hi)
	tv := colView{n: p1 - p0, compressed: bv.compressed}
	sc.winPtr = append(sc.winPtr[:0], 0)
	for _, f := range pl.colFlops[p0:p1] {
		sc.winPtr = append(sc.winPtr, sc.winPtr[len(sc.winPtr)-1]+f)
	}
	tv.ptr = sc.winPtr
	if tv.compressed {
		sc.winJC = sc.winJC[:0]
		for _, j := range bv.jc[p0:p1] {
			sc.winJC = append(sc.winJC, j-lo)
		}
		tv.jc = sc.winJC
	}
	views[last] = tv
	slots, colIn := mergeSlots(views, cols, sc.colIn)
	sc.colIn = colIn
	entries := tv.ptr[tv.n]
	for _, m := range prev {
		entries += m.NNZ()
	}
	ptr := make([]int64, slots.n+1)
	plusTimes := sr.IsPlusTimes()
	var made atomic.Int64
	ir, num, loan := onePass(flopBounds(colIn, clampThreads(threads, slots.n, entries)), func(w *mmWorker, s0, s1 int32) {
		w.seek(views, slots.index(s0))
		var n int64
		for s := s0; s < s1; s++ {
			if colIn[s] == 0 {
				continue
			}
			start, j := len(w.rows), slots.index(s)
			// B's slot of output column j, if the window stores it. The
			// cursor steps over the stored columns the loop skipped: those
			// without flops, in no earlier part either.
			p := p0 + j
			if tv.compressed {
				c := w.pos[last]
				for c < int(tv.n) && tv.jc[c] < j {
					c++
				}
				if p = -1; c < int(tv.n) && tv.jc[c] == j {
					p = p0 + int32(c)
				}
				w.pos[last] = c
			}
			switch {
			case p < 0 || pl.colFlops[p] == 0:
				w.mergeColumn(mg, w.gather(views[:last], j), colIn[s], rows, sr, plusTimes, sortOutput)
			case mg == MergerHash && !k.heapMerges(pl.colFlops[p]):
				w.acc.sizeFor(colIn[s], rows)
				hashAccumulateColumn(&w.acc, av, pl.aSlots(p), pl.bVals(p), sr, plusTimes)
				n += int64(len(w.acc.occupied))
				w.mergeIntoTable(w.gather(views[:last], j), k, colIn[s], rows, sr, plusTimes, sortOutput)
			default:
				// A column the kernel heap-merges, or any column under the
				// heap merger, which reads the product's column sorted: made
				// into the column scratch, then merged by the merger's own
				// routine. The heap kernels use the worker's parts while they
				// run, so the earlier parts are gathered after.
				w.swapColumn()
				w.rows, w.vals = w.rows[:0], w.vals[:0]
				w.mulColumn(pl, av, p, k, sr, plusTimes, rows, k.sorts() || mg == MergerHeap)
				w.swapColumn()
				n += int64(len(w.col.rows))
				w.mergeProduct(mg, w.gather(views[:last], j), colIn[s], rows, sr, plusTimes, sortOutput)
			}
			ptr[s+1] = int64(len(w.rows) - start)
		}
		made.Add(n)
	}, mode)
	return newOutput(rows, cols, slots.jc, slots.compressed, ptr, ir, num, sorted), loan, made.Load()
}

// window returns the range [p0, p1) of B's slots that hold its columns
// [lo, hi).
func (pl *Plan) window(lo, hi int32) (p0, p1 int32) {
	if !pl.bv.compressed {
		return lo, hi
	}
	i0, _ := slices.BinarySearch(pl.bv.jc, lo)
	i1, _ := slices.BinarySearch(pl.bv.jc, hi)
	return int32(i0), int32(i1)
}

// WindowFlops returns the multiplication count of the columns [lo, hi) of
// A·B: the work of a MulMerge over that window, beside its earlier parts'
// entries.
func (pl *Plan) WindowFlops(lo, hi int32) int64 {
	p0, p1 := pl.window(lo, hi)
	var f int64
	for _, c := range pl.colFlops[p0:p1] {
		f += c
	}
	return f
}

// swapColumn exchanges the worker's chunk and its column scratch, so that
// what appends a column to the chunk appends it to the scratch instead:
// swapped in and emptied to make a column there, swapped back to put the
// chunk back.
func (w *mmWorker) swapColumn() {
	w.rows, w.col.rows = w.col.rows, w.rows
	w.vals, w.col.vals = w.col.vals, w.vals
}

// mergeIntoTable appends to the worker's chunk the hash merge of one
// column's earlier parts with the product column its table holds, which
// kernel k accumulated there, as MergeMat's would come out of [parts…, the
// column drained in k's order]. With no part the table is drained; with one
// it is merged in the table (hashAccumulateFirst for a sorted drain,
// walkFirst otherwise); with more the column is drained into the column
// scratch and merged with them (mergeProduct). want and rows size the table
// as mergeColumn's.
func (w *mmWorker) mergeIntoTable(parts []colPart, k Kernel, want int64, rows int32, sr *semiring.Semiring, plusTimes, sorted bool) {
	switch {
	case len(parts) == 0:
		w.drain(sorted || k.sorts())
	case len(parts) == 1 && sorted:
		hashAccumulateFirst(&w.acc, parts[0], sr, plusTimes)
		w.drain(true)
	case len(parts) == 1:
		w.walkFirst(parts[0], sr, plusTimes)
		w.drain(k.sorts())
	default:
		w.swapColumn()
		w.rows, w.vals = w.rows[:0], w.vals[:0]
		w.drain(k.sorts())
		w.swapColumn()
		w.mergeProduct(MergerHash, parts, want, rows, sr, plusTimes, sorted)
	}
}

// mergeProduct merges one column's earlier parts with the product column the
// worker's column scratch holds, last, by the merger's own routine
// (mergeColumn).
func (w *mmWorker) mergeProduct(mg Merger, parts []colPart, want int64, rows int32, sr *semiring.Semiring, plusTimes, sorted bool) {
	parts = append(parts, colPart{rows: w.col.rows, vals: w.col.vals})
	w.parts = parts
	w.mergeColumn(mg, parts, want, rows, sr, plusTimes, sorted)
}

// sortedOperands returns mats with every unsorted operand replaced by a
// sorted copy: the heap merger's inputs.
func sortedOperands(mats []spmat.Matrix) []spmat.Matrix {
	sorted := make([]spmat.Matrix, len(mats))
	for i, m := range mats {
		if !m.Sorted() {
			m = m.CloneMat()
			m.SortColumns()
		}
		sorted[i] = m
	}
	return sorted
}
