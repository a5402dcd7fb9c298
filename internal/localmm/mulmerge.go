package localmm

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// MulMerge is Merge-Layer with the planned SUMMA stages' multiplies inside
// it: MergeMat(mg, append(prev, windows…), sr, sortOutput, threads), where
// windows[i] is the columns [lo, hi) of plans[i].Mul(k, sr, ·) —
// spmat.MatColRanges of that product, or the product itself when the window
// is all of B — without any planned product ever existing. prev are the
// earlier materialized stage products of the same window (or their windows),
// each rows × (hi − lo), any formats, each column holding a row at most once,
// as every kernel's and merger's output does; plans are the stages after
// them, in stage order, at least one, all over A blocks of the same height.
// The staged schedule passes every stage's plan and no prev; the pipelined
// one its q − 1 products and the last stage's plan.
//
// The output is bit-identical to that merge's: values, stored entry order,
// format and sorted flag. Column by column, each planned stage's
// contributions are made in stage order, as the kernel would make them, and
// merged with the earlier parts:
//
//   - Under the hash merger, with at most one earlier column — a part of prev
//     or an earlier planned stage's column, made into the worker's stage
//     scratch — and a last planned column the kernel hashes, the table that
//     accumulates the last column is the merge's too. With no earlier column
//     it is drained as the merge would drain that column alone. A sorted
//     drain inserts the earlier column into the table as the first operand
//     and walks the table ascending; an unsorted one walks the earlier column
//     against the table, emitting earlier + table where the table holds the
//     row, then drains the rows it did not meet in the kernel's order
//     (walkFirst).
//   - Otherwise every planned column is made into the stage scratch in the
//     order the merge would read it (sorted for the heap merger), and the
//     merger's own column routine runs over [parts…, stage columns…], as
//     MergeMat runs it.
//
// It returns the merged output and the number of entries the windows of the
// planned products would have held together. With lend the output is lent as
// MergeLent lends: when the pass ran one range, the output's entry arrays are
// the worker's chunk itself, on loan until the caller hands it back with
// Loan.Return; a pass that ran several ranges, and any pass without lend,
// returns owned arrays and an empty Loan. The output shares nothing with the plans
// or with prev. The plans stay the caller's: a pipelined Merge-Layer calls
// this once per destination window, then releases them.
func MulMerge(k Kernel, mg Merger, prev []spmat.Matrix, plans []*Plan, lo, hi int32, sr *semiring.Semiring, sortOutput, lend bool, threads int) (spmat.Matrix, Loan, int64) {
	if len(plans) == 0 {
		panic("localmm: fused merge of no planned stage")
	}
	rows, _ := plans[0].a.Dims()
	for _, pl := range plans {
		r, _ := pl.a.Dims()
		if _, bCols := pl.b.Dims(); r != rows || lo < 0 || hi < lo || hi > bCols {
			panic(fmt.Sprintf("localmm: window [%d, %d) of a stage %v·%v beside %d-row stages", lo, hi, pl.a, pl.b, rows))
		}
	}
	cols := hi - lo
	for _, m := range prev {
		if r, c := m.Dims(); r != rows || c != cols {
			panic(fmt.Sprintf("localmm: merge shape mismatch %v vs %dx%d", m, rows, cols))
		}
	}
	// A hash merge of one window alone passes that product through, sorted
	// flag and all.
	sorted := sortOutput || mg == MergerHeap || len(prev)+len(plans) == 1 && k.sorts()
	if mg == MergerHeap {
		sortOutput = true
		prev = sortedOperands(prev)
	}
	f := &fusedPass{k: k, mg: mg, sr: sr, plusTimes: sr.IsPlusTimes(), sortOutput: sortOutput, rows: rows,
		views: make([]colView, len(prev)+len(plans)), first: len(prev), plans: plans}
	var entries int64
	for i, m := range prev {
		f.views[i] = viewOf(m)
		entries += m.NNZ()
	}
	for i, pl := range plans {
		v := &f.views[f.first+i]
		*v = pl.stageWindow(k, lo, hi)
		entries += v.ptr[v.n]
	}
	sc := plans[0].scratch
	slots, colIn := mergeSlots(f.views, cols, sc.colIn)
	sc.colIn = colIn
	ptr := make([]int64, slots.n+1)
	mode := ownedOutput
	if lend {
		mode = lentOutput
	}
	ir, num, loan := onePass(flopBounds(colIn, clampThreads(threads, slots.n, entries)), func(w *mmWorker, s0, s1 int32) {
		w.seek(f.views, slots.index(s0))
		w.at = slices.Grow(w.at[:0], len(plans))[:len(plans)]
		clear(w.at)
		var made int64
		for s := s0; s < s1; s++ {
			if colIn[s] == 0 {
				continue
			}
			start := len(w.rows)
			made += f.column(w, slots.index(s), colIn[s])
			ptr[s+1] = int64(len(w.rows) - start)
		}
		f.made.Add(made)
	}, mode)
	return newOutput(rows, cols, slots.jc, slots.compressed, ptr, ir, num, sorted), loan, f.made.Load()
}

// fusedPass is what every column of one MulMerge shares: the kernel, the
// merger and the semiring, the operands' views — prev's, then each planned
// stage's window from index first on — and the stages' plans; made adds up
// the planned columns' entries over the ranges.
type fusedPass struct {
	made       atomic.Int64
	k          Kernel
	mg         Merger
	sr         *semiring.Semiring
	plusTimes  bool
	sortOutput bool
	rows       int32
	views      []colView
	first      int
	plans      []*Plan
}

// stageAt is a worker's place in a planned stage: the B slot of the
// current output column (−1 when the stage has no flops there) and where
// the stage's column ends in the worker's stage scratch.
type stageAt struct {
	p   int32
	end int
}

// stageWindow readies the plan for a fused merge of the window [lo, hi) of
// its product under kernel k (its scratch's p0 and kv) and returns the
// window as one more merge operand, in B's format: slot i is B's slot
// p0 + i, and its entry counts are the slots' flops — a product column has
// entries exactly where it has flops, and no more entries than flops. Its
// arrays are the plan's scratch: they live until the next window.
func (pl *Plan) stageWindow(k Kernel, lo, hi int32) colView {
	bv, sc := &pl.bv, pl.scratch
	p0, p1 := pl.window(lo, hi)
	sc.p0, sc.kv = p0, pl.kernelView(k)
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
	return tv
}

// slot returns B's slot of output column j in planned stage i, or −1 when
// the stage has no flops there. The stage's cursor steps over the stored
// columns the loop skipped: those without flops, in no other operand either.
func (f *fusedPass) slot(w *mmWorker, i int, j int32) int32 {
	pl, v, x := f.plans[i], &f.views[f.first+i], f.first+i
	p := pl.scratch.p0 + j
	if v.compressed {
		c := w.pos[x]
		for c < int(v.n) && v.jc[c] < j {
			c++
		}
		w.pos[x] = c
		if c == int(v.n) || v.jc[c] != j {
			return -1
		}
		p = pl.scratch.p0 + int32(c)
	}
	if pl.colFlops[p] == 0 {
		return -1
	}
	return p
}

// column appends output column j — want input entries, flops included — to
// the worker's chunk and returns the entries its planned columns came to.
// The heap kernels use the worker's parts while they run, so prev's parts
// are gathered only once every planned column that may be heap-merged is
// made.
func (f *fusedPass) column(w *mmWorker, j int32, want int64) (made int64) {
	at, last := w.at, -1
	for i := range at {
		if at[i].p = f.slot(w, i, j); at[i].p >= 0 {
			last = i
		}
	}
	if last < 0 {
		w.mergeColumn(f.mg, w.gather(f.views[:f.first], j), want, f.rows, f.sr, f.plusTimes, f.sortOutput)
		return 0
	}
	w.stage.rows, w.stage.vals = w.stage.rows[:0], w.stage.vals[:0]
	earlier := 0
	for i := range last {
		if at[i].p >= 0 {
			made += f.stageColumn(w, &at[i], i)
			earlier++
		}
	}
	pl, p := f.plans[last], at[last].p
	if f.mg == MergerHash && !f.k.heapMerges(pl.colFlops[p]) {
		w.acc.sizeFor(want, f.rows)
		hashAccumulateColumn(&w.acc, pl.scratch.kv, pl.aSlots(p), pl.bVals(p), f.sr, f.plusTimes)
		made += int64(len(w.acc.occupied))
		parts := w.gather(f.views[:f.first], j)
		if len(parts)+earlier <= 1 {
			w.mergeIntoTable(f.stageParts(w, parts, at[:last]), f.k, f.sr, f.plusTimes, f.sortOutput)
			return made
		}
		w.swapStage()
		w.drain(f.k.sorts())
		w.swapStage()
		at[last].end = len(w.stage.rows)
	} else {
		made += f.stageColumn(w, &at[last], last)
		w.gather(f.views[:f.first], j)
	}
	w.mergeColumn(f.mg, f.stageParts(w, w.parts, at[:last+1]), want, f.rows, f.sr, f.plusTimes, f.sortOutput)
	return made
}

// stageColumn appends planned stage i's column at a.p to the worker's stage
// scratch as its product would hold it for the merge: in the kernel's order
// under the hash merger, ascending under the heap merger, which reads its
// operands sorted — and returns its entry count.
func (f *fusedPass) stageColumn(w *mmWorker, a *stageAt, i int) int64 {
	pl, start := f.plans[i], len(w.stage.rows)
	w.swapStage()
	w.mulColumn(pl, pl.scratch.kv, a.p, f.k, f.sr, f.plusTimes, f.rows, f.k.sorts() || f.mg == MergerHeap)
	w.swapStage()
	a.end = len(w.stage.rows)
	return int64(a.end - start)
}

// stageParts appends to parts the planned stages' columns the worker's stage
// scratch holds, in stage order, and keeps the slice as the worker's parts.
func (f *fusedPass) stageParts(w *mmWorker, parts []colPart, at []stageAt) []colPart {
	start := 0
	for i := range at {
		if at[i].p >= 0 {
			parts = append(parts, colPart{rows: w.stage.rows[start:at[i].end], vals: w.stage.vals[start:at[i].end]})
			start = at[i].end
		}
	}
	w.parts = parts
	return parts
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

// swapStage exchanges the worker's chunk and its stage scratch, so that what
// appends a column to the chunk appends it to the scratch instead: swapped in
// to make a column there, swapped back to put the chunk back.
func (w *mmWorker) swapStage() {
	w.rows, w.stage.rows = w.stage.rows, w.rows
	w.vals, w.stage.vals = w.stage.vals, w.vals
}

// mergeIntoTable appends to the worker's chunk the hash merge of one
// column's earlier column, if any, with the planned column its table holds,
// which kernel k accumulated there, as MergeMat's would come out of
// [earlier, the column drained in k's order]. With no earlier column the
// table is drained; with one it is merged in the table (hashAccumulateFirst
// for a sorted drain, walkFirst otherwise).
func (w *mmWorker) mergeIntoTable(parts []colPart, k Kernel, sr *semiring.Semiring, plusTimes, sorted bool) {
	switch {
	case len(parts) == 0:
		w.drain(sorted || k.sorts())
	case sorted:
		hashAccumulateFirst(&w.acc, parts[0], sr, plusTimes)
		w.drain(true)
	default:
		w.walkFirst(parts[0], sr, plusTimes)
		w.drain(k.sorts())
	}
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
