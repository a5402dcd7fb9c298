package localmm

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// MulMerge is the one merge: Merge-Layer with the planned SUMMA stages'
// multiplies inside it, and with no plan Merge-Fiber and MergeMat. It is
// MergeMat(MergerHash, append(prev, windows…), sr, sortOutput, threads),
// where windows[i] is the columns [lo, hi) of plans[i].Mul(k, sr, false, ·)
// — spmat.MatColRanges of that product, or the product itself when the
// window is all of B — without any planned product ever existing. prev are
// the earlier materialized operands, any formats; plans are the stages after
// them, in stage order, all over A blocks of the same height. The staged
// schedule passes every stage's plan and no prev; the pipelined one its
// q − 1 products and the last stage's plan; Merge-Fiber the pieces the fiber
// exchange brought and no plan.
//
// With a plan, prev are windows of the same batch, each rows × (hi − lo),
// each column holding a row at most once, as every kernel's and merge's
// output does, and k is the kernel the planned columns are made with. With no
// plan the merge is of prev alone: the shape is prev's, lo, hi and k are not
// read, a column may hold a row more than once (the merge adds the
// duplicates up), and a lone operand is its own sum — returned as it is, the
// operand itself, or sorted on a copy when sortOutput asks it of an unsorted
// one.
//
// The output is bit-identical to that merge's: values, stored entry order,
// format and sorted flag. Column by column, each planned stage's
// contributions are made in stage order, as the kernel would make them, and
// merged with the earlier parts:
//
//   - With no planned column, the merge's own column routine runs over the
//     earlier parts, as it would over the products.
//   - With at most one earlier column — a part of prev or an earlier planned
//     stage's column, made into the worker's stage scratch — the table that
//     accumulates the last planned column is the merge's too. With no
//     earlier column it is drained as the merge would drain that column
//     alone. A sorted drain inserts the earlier column into the table as the
//     first operand and walks the table ascending; an unsorted one walks the
//     earlier column against the table, emitting earlier + table where the
//     table holds the row, then drains the rows it did not meet in the
//     kernel's order (walkFirst).
//   - Otherwise the last planned column is drained into the stage scratch
//     too, in the kernel's order, and the merge's column routine runs over
//     [parts…, stage columns…].
//
// It returns the merged output and the number of entries the windows of the
// planned products would have held together. Without lend the output is the
// caller's. lend is for an output that is read and dropped — a Merge-Layer
// output on its way through the fiber exchange, a batch a discarding hook
// consumes — as Plan.Mul's is for a stage product: when the pass ran one
// range, the output is lent, its entry arrays the worker's chunk itself and
// its column pointers and stored columns drawn from spmat's free list, until
// the caller gives them back with spmat.Release; the caller must be done
// reading the output, and every view of it (spmat.MatColRanges), by then. A
// pass that ran several ranges returns an owned output; a lone operand's
// pass-through returns the operand, lent or not as it came. The output shares
// nothing with the plans, nor with prev unless it is prev's lone operand. The
// plans stay the caller's: a pipelined Merge-Layer calls this once per
// destination window, then releases them.
func MulMerge(k Kernel, prev []spmat.Matrix, plans []*Plan, lo, hi int32, sr *semiring.Semiring, sortOutput, lend bool, threads int) (spmat.Matrix, int64) {
	var rows, cols int32
	if len(plans) == 0 {
		rows, cols = checkMergeShapes(prev)
		if len(prev) == 1 {
			m := prev[0]
			if sortOutput && !m.Sorted() {
				m = m.CloneMat()
				m.SortColumns()
			}
			return m, 0
		}
	} else {
		rows, _ = plans[0].a.Dims()
		cols = hi - lo
		for _, pl := range plans {
			r, _ := pl.a.Dims()
			if _, bCols := pl.b.Dims(); r != rows || lo < 0 || hi < lo || hi > bCols {
				panic(fmt.Sprintf("localmm: window [%d, %d) of a stage %v·%v beside %d-row stages", lo, hi, pl.a, pl.b, rows))
			}
		}
		for _, m := range prev {
			if r, c := m.Dims(); r != rows || c != cols {
				panic(fmt.Sprintf("localmm: merge shape mismatch %v vs %dx%d", m, rows, cols))
			}
		}
	}
	// A merge of one window alone passes that product through, sorted flag
	// and all.
	sorted := sortOutput || len(prev)+len(plans) == 1 && k.sorts()
	// The pass, the operands' views, the input entries of the output's slots
	// and a doubly-compressed output's union of stored columns are worked out
	// in plan scratch: a fused merge's first plan's, a merge with no plan's
	// own, off the free list for the call.
	var sc *planScratch
	if len(plans) > 0 {
		sc = plans[0].scratch
	} else {
		sc = getPlanScratch()
		defer putPlanScratch(sc)
	}
	sc.views = slices.Grow(sc.views[:0], len(prev)+len(plans))[:len(prev)+len(plans)]
	f := &sc.pass
	f.reset()
	f.k, f.sr, f.plusTimes, f.sortOutput, f.rows = k, sr, sr.IsPlusTimes(), sortOutput, rows
	f.views, f.first, f.plans = sc.views, len(prev), plans
	var entries int64
	for i, m := range prev {
		f.views[i] = viewOf(m)
		entries += m.NNZ()
	}
	for i, pl := range plans {
		v := &f.views[f.first+i]
		*v = pl.stageWindow(lo, hi)
		entries += v.ptr[v.n]
	}
	f.slots, sc.colIn = mergeSlots(f.views, cols, sc.colIn, sc.union)
	f.colIn = sc.colIn
	slots := &f.slots
	sc.bounds = flopBounds(f.colIn, clampThreads(threads, slots.n, entries), sc.bounds)
	out := outputFor(lend).over(sc.bounds)
	if slots.compressed {
		sc.union, slots.jc = slots.jc, copyColumns(out, slots.jc)
	}
	f.ptr = pointers(out, slots.n+1)
	ir, num := onePass(sc.bounds, f.colIn, rows, f, out)
	return newOutput(rows, cols, slots.jc, slots.compressed, f.ptr, ir, num, sorted, out), f.made.Load()
}

// fusedPass is what every column of one MulMerge shares: the kernel and the
// semiring, the operands' views — prev's, then each planned stage's window
// from index first on — the output's slots, their input entries (colIn) and
// the output's column pointers, which the ranges fill with the slots' entry
// counts, and the stages' plans; made adds up the planned columns' entries
// over the ranges. It lives in the plan scratch the merge borrows.
type fusedPass struct {
	made       atomic.Int64
	k          Kernel
	sr         *semiring.Semiring
	plusTimes  bool
	sortOutput bool
	rows       int32
	views      []colView
	first      int
	slots      colView
	colIn      []int64
	ptr        []int64
	plans      []*Plan
}

// reset readies the pass for the next merge, letting go of what it read.
func (f *fusedPass) reset() {
	f.made.Store(0)
	f.sr, f.views, f.slots, f.colIn, f.ptr, f.plans = nil, nil, colView{}, nil, nil, nil
}

// fill computes the output slots [s0, s1) of one range (onePass).
func (f *fusedPass) fill(w *mmWorker, s0, s1 int32) {
	slots, colIn := &f.slots, f.colIn
	w.seek(f.views, slots.index(s0))
	w.at = slices.Grow(w.at[:0], len(f.plans))[:len(f.plans)]
	clear(w.at)
	var made int64
	for s := s0; s < s1; s++ {
		if colIn[s] == 0 {
			continue
		}
		start := len(w.rows)
		made += f.column(w, slots.index(s), colIn[s])
		f.ptr[s+1] = int64(len(w.rows) - start)
	}
	f.made.Add(made)
}

// stageAt is a worker's place in a planned stage: the B slot of the
// current output column (−1 when the stage has no flops there) and where
// the stage's column ends in the worker's stage scratch.
type stageAt struct {
	p   int32
	end int
}

// stageWindow readies the plan for a fused merge of the window [lo, hi) of
// its product (its scratch's p0) and returns the window as one more merge
// operand, in B's format: slot i is B's slot p0 + i, and its entry counts
// are the slots' flops — a product column has entries exactly where it has
// flops, and no more entries than flops. Its arrays are the plan's scratch:
// they live until the next window.
func (pl *Plan) stageWindow(lo, hi int32) colView {
	bv, sc := &pl.bv, pl.scratch
	p0, p1 := pl.window(lo, hi)
	sc.p0 = p0
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
func (f *fusedPass) column(w *mmWorker, j int32, want int64) (made int64) {
	parts := w.gather(f.views[:f.first], j)
	at, last := w.at, -1
	for i := range at {
		if at[i].p = f.slot(w, i, j); at[i].p >= 0 {
			last = i
		}
	}
	if last < 0 {
		w.mergeColumn(parts, want, f.rows, f.sr, f.plusTimes, f.sortOutput)
		return 0
	}
	w.stage.rows, w.stage.vals = w.stage.rows[:0], w.stage.vals[:0]
	earlier := len(parts)
	for i := range last {
		if at[i].p >= 0 {
			made += f.stageColumn(w, &at[i], i)
			earlier++
		}
	}
	pl, p := f.plans[last], at[last].p
	w.acc.sizeFor(want, f.rows)
	hashAccumulateColumn(&w.acc, &pl.av, pl.aSlots(p), pl.bVals(p), f.sr, f.plusTimes)
	made += int64(len(w.acc.occupied))
	if earlier <= 1 {
		w.mergeIntoTable(f.stageParts(w, parts, at[:last]), f.k, f.sr, f.plusTimes, f.sortOutput)
		return made
	}
	w.swapStage()
	w.drain(f.k.sorts())
	w.swapStage()
	at[last].end = len(w.stage.rows)
	w.mergeColumn(f.stageParts(w, parts, at[:last+1]), want, f.rows, f.sr, f.plusTimes, f.sortOutput)
	return made
}

// stageColumn appends planned stage i's column at a.p to the worker's stage
// scratch as its product would hold it for the merge, in the kernel's order,
// and returns its entry count.
func (f *fusedPass) stageColumn(w *mmWorker, a *stageAt, i int) int64 {
	pl, start := f.plans[i], len(w.stage.rows)
	w.swapStage()
	w.mulColumn(pl, a.p, f.sr, f.plusTimes, f.rows, f.k.sorts())
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
