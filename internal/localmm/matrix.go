package localmm

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// This file holds the kernels themselves — SpGEMM, symbolic SpGEMM and merge
// over the spmat.Matrix storage interface — written once for every format
// combination. An operand is read through a colView, a positional view of
// its stored columns: for CSC every column is a slot, for DCSC only the
// stored ones are, so symbolic and numeric work on a doubly-compressed block
// is O(flops + nnz) — never O(cols). That is the in-memory counterpart of
// the hypersparse wire encoding: at the paper's scale the local blocks have
// far more columns than nonzeros (Rice-kmers, ~2 nnz/col), and a per-column
// scan would dominate every stage.
//
// A multiply reaches A's columns by the row indices of B's entries. Those
// lookups are made once per block pair, by the pair's Plan: for a DCSC A
// each B entry's row is located among A's stored columns
// (spmat.DCSC.Locate, through the AUX array) and the position kept, and for
// a CSC A the row is the position. The symbolic count and every kernel then
// read A's view at those slots, with no lookup and no branch on A's format
// per entry.
//
// A SUMMA stage's product need not be written at all: MulMerge
// (mulmerge.go), the one merge, makes the planned stages' columns one output
// column at a time, in stage order, and merges them with the earlier stage
// products' columns, bit-identical to merging the products Plan.Mul would
// have made. mulColumn is the column routine that pass shares with the
// multiply here; mergeColumn, the merge's column routine, is here too.
//
// Output format follows B: the stored columns of A·B are a subset of B's,
// so a DCSC B yields a DCSC product (a batch piece stays compressed through
// multiply → merge), while a CSC B keeps the dense-pointer output whose
// column metadata already exists. Values and entry order are bit-identical
// for any format combination: columns are visited in the same ascending
// order, entries accumulate in the same operand order, and the hash
// accumulators drain in the same insertion order.

// colPart is a view of one column's entries.
type colPart struct {
	rows []int32
	vals []float64
}

// colView is a positional, read-only view of a matrix's columns. Slot p is
// column p of a CSC, and the p-th stored column — column jc[p] — of a DCSC
// (compressed set).
type colView struct {
	n          int32
	compressed bool
	jc         []int32
	ptr        []int64
	rows       []int32
	vals       []float64
}

// viewOf returns the view of m's storage.
func viewOf(m spmat.Matrix) colView {
	if c, ok := m.(*spmat.CSC); ok {
		return colView{n: c.Cols, ptr: c.ColPtr, rows: c.RowIdx, vals: c.Val}
	}
	d := m.ToDCSC()
	return colView{n: int32(len(d.JC)), compressed: true, jc: d.JC, ptr: d.CP, rows: d.IR, vals: d.Num}
}

// col returns the entries of slot p.
func (v *colView) col(p int32) ([]int32, []float64) {
	lo, hi := v.ptr[p], v.ptr[p+1]
	return v.rows[lo:hi], v.vals[lo:hi]
}

// index returns the logical column of slot p.
func (v *colView) index(p int32) int32 {
	if v.compressed {
		return v.jc[p]
	}
	return p
}

// checkMulShapesMat panics on inner-dimension mismatch.
func checkMulShapesMat(a, b spmat.Matrix) {
	_, ac := a.Dims()
	br, _ := b.Dims()
	if ac != br {
		panic(fmt.Sprintf("localmm: inner dimension mismatch: A is %v, B is %v", a, b))
	}
}

// Plan is what one pass over B's entries learns about the product A·B before
// anything is multiplied: where each B entry's row is stored in A, and the
// multiplication count of every slot of B — the quantity a stage of the
// distributed multiply reports (Flops), balances its workers by and sizes
// its hash tables by. It is made once per block pair; Mul, Symbolic and the
// fused Merge-Layer (MulMerge, which takes a stage's plan in place of its
// product) then run from it, any number of times, with either kernel, and
// read A's columns through its colView by the slots the plan holds: no
// column of A is looked up twice.
//
// A plan lives inside its planScratch: the struct and the per-entry and
// per-slot arrays (the A slots of a DCSC A, the running flop sums, the
// per-slot counts) are taken off the kernels' free list of plans by PlanMul
// and go back together on Release, so a warm plan allocates nothing. Its
// calls share that scratch, so a plan is one goroutine's at a time. A plan is
// used until Release and never after, Flops included: read it first.
type Plan struct {
	// Flops is the multiplication count of A·B (Flops generalized to the
	// storage interface).
	Flops int64

	a, b   spmat.Matrix
	av, bv colView
	// slots[q-base] is the A slot of B entry q's row: for a DCSC A the JC
	// position of that column, -1 when A does not store it; for a CSC A the
	// row itself, so slots is B's own row array and base 0. B entry q is
	// indexed from bv.ptr[0] (base) because B can be a column-range view
	// over arrays it shares.
	slots    []int32
	base     int64
	colFlops []int64
	scratch  *planScratch
}

// planScratch is a plan and what it borrows from the free list: the plan
// itself, the pass of its multiply (mulPass), the A slot and running flop
// sum of every B entry (a DCSC A only), the flop count of every B slot, the
// bounds of a pass's ranges, and what a fused merge (MulMerge) needs of the
// plan for the length of one call, reused by the next window: the window's
// running flop counts and, for a DCSC B, its columns, the B slot of its
// first column (p0), and — in the first plan's scratch — the merge's pass,
// the operands' views, the input entries of every output slot and, for a
// DCSC output, the union of the operands' stored columns. A merge with no
// plan borrows a scratch for the pass and the last three alone.
type planScratch struct {
	plan     Plan
	mul      mulPass
	pass     fusedPass
	slots    []int32
	sums     []int64
	colFlops []int64
	bounds   []int32
	winPtr   []int64
	winJC    []int32
	views    []colView
	colIn    []int64
	union    []int32
	p0       int32
}

// PlanMul counts the flops of A·B slot by slot; O(nnz(B)) with no dense
// column scan. For a DCSC A the pass is flat over B's entries: every row is
// looked up once (spmat.DCSC.Locate), each entry's flops are added to a
// running sum, and a slot's count is the difference of the sums at its ends.
func PlanMul(a, b spmat.Matrix) *Plan {
	checkMulShapesMat(a, b)
	s := getPlanScratch()
	pl := &s.plan
	*pl = Plan{a: a, b: b, av: viewOf(a), bv: viewOf(b), scratch: s}
	bv, aPtr := &pl.bv, pl.av.ptr
	s.colFlops = slices.Grow(s.colFlops[:0], int(bv.n))[:bv.n]
	pl.colFlops = s.colFlops
	if !pl.av.compressed {
		pl.slots = bv.rows
		for p := range pl.colFlops {
			var f int64
			for _, i := range bv.rows[bv.ptr[p]:bv.ptr[p+1]] {
				f += aPtr[i+1] - aPtr[i]
			}
			pl.colFlops[p] = f
			pl.Flops += f
		}
		return pl
	}
	base := bv.ptr[0]
	entries := bv.rows[base:bv.ptr[bv.n]]
	s.slots = slices.Grow(s.slots[:0], len(entries))[:len(entries)]
	s.sums = slices.Grow(s.sums[:0], len(entries)+1)[:len(entries)+1]
	slots, sums, colFlops := s.slots, s.sums, s.colFlops
	a.ToDCSC().Locate(entries, slots)
	var run int64
	sums[0] = 0
	for x, k := range slots {
		if k >= 0 {
			run += aPtr[k+1] - aPtr[k]
		}
		sums[x+1] = run
	}
	ptr := bv.ptr[:len(colFlops)+1]
	for p := range colFlops {
		colFlops[p] = sums[ptr[p+1]-base] - sums[ptr[p]-base]
	}
	pl.slots, pl.base, pl.Flops = slots, base, run
	return pl
}

// aSlots returns the A slots of the entries of B's slot p.
func (pl *Plan) aSlots(p int32) []int32 {
	return pl.slots[pl.bv.ptr[p]-pl.base : pl.bv.ptr[p+1]-pl.base]
}

// bVals returns the values of the entries of B's slot p.
func (pl *Plan) bVals(p int32) []float64 {
	return pl.bv.vals[pl.bv.ptr[p]:pl.bv.ptr[p+1]]
}

// Release hands the plan back to the free list of plans, with its arrays.
// Nothing of the plan may be read afterwards — Flops neither: the next
// PlanMul on any goroutine fills the same struct. Releasing again before
// that does nothing. While spmat.PoisonReleased is set the plan is poisoned
// first: every slot out of range, every flop count and sum −1, Flops too, so
// a plan read after its release fails loudly instead of reading the next
// plan's.
func (pl *Plan) Release() {
	if s := pl.scratch; s != nil {
		putPlanScratch(s)
	}
}

// MatFlops returns the multiplication count of A·B over any format
// combination.
func MatFlops(a, b spmat.Matrix) int64 {
	if ac, ok := a.(*spmat.CSC); ok {
		if bc, ok := b.(*spmat.CSC); ok {
			return Flops(ac, bc)
		}
	}
	pl := PlanMul(a, b)
	defer pl.Release()
	return pl.Flops
}

// SymbolicMat computes nnz(A·B) without forming the product — LOCALSYMBOLIC
// of Alg 3 — over any format combination, with at most threads worker
// goroutines (clampThreads) counting distinct output rows per column over
// flop-balanced ranges of B's slots. Work on a doubly-compressed B is
// O(flops + nnz(B)); the count is the same for every format and thread
// count.
func SymbolicMat(a, b spmat.Matrix, threads int) int64 {
	pl := PlanMul(a, b)
	defer pl.Release()
	return pl.Symbolic(threads)
}

// Symbolic is SymbolicMat on the planned pair: the one symbolic loop. Each
// worker counts in its own row set — generation stamps when a stamp per row
// of A fits directTableBytes, a hash set sized by the column otherwise — so
// no call allocates by the row count.
func (pl *Plan) Symbolic(threads int) int64 {
	av, colFlops := &pl.av, pl.colFlops
	aRows, _ := pl.a.Dims()
	var total atomic.Int64
	s := pl.scratch
	s.bounds = flopBounds(colFlops, clampThreads(threads, pl.bv.n, pl.Flops), s.bounds)
	runWorkers(s.bounds, func(w *mmWorker, lo, hi int32) {
		var n int64
		for p := lo; p < hi; p++ {
			if colFlops[p] != 0 {
				n += w.set.countColumn(av, pl.aSlots(p), colFlops[p], aRows)
			}
		}
		total.Add(n)
	})
	return total.Load()
}

// MulMat computes A·B with the selected kernel over any format combination
// by the one-pass plan of parallel.go, with at most threads workers — fewer
// when the product is too small to pay for them (clampThreads); one worker
// runs on the caller's goroutine — over flop-balanced ranges of B's slots.
func MulMat(k Kernel, a, b spmat.Matrix, sr *semiring.Semiring, threads int) spmat.Matrix {
	pl := PlanMul(a, b)
	defer pl.Release()
	return pl.Mul(k, sr, false, threads)
}

// Mul is MulMat on the planned pair. Without lend the product is the
// caller's. lend is for a product that is read once and dropped — a
// pipelined stage product on its way into a Merge-Layer that accumulates it
// with others: when the call ran one range (every call too small for a second
// worker), the product is lent (spmat.Lend) — its entry arrays the worker's
// chunk itself, nothing copied, and its column pointers and stored columns
// drawn from spmat's free list — so a warm call allocates nothing by the
// product's size or width. The caller must then be done reading the product,
// and everything that shares its arrays (its column-range views,
// spmat.MatColRanges), before it gives them back with spmat.Release, and must
// not let either escape: no merge of one operand, which returns the operand,
// and nothing that keeps the product. A lending call that ran several ranges
// returns an owned product, which Release leaves alone. Either way the
// product shares nothing with the plan, which can be released first.
func (pl *Plan) Mul(k Kernel, sr *semiring.Semiring, lend bool, threads int) spmat.Matrix {
	return pl.multiply(k, sr, clampThreads(threads, pl.bv.n, pl.Flops), outputFor(lend))
}

// multiply runs the multiply on exactly workers ranges of B's slots (some
// may be empty), its output lent only when out asks and one range runs. Mul
// decides the count; BenchmarkWorkerSpawnCrossover, which sets the floor they
// decide by, calls this directly.
func (pl *Plan) multiply(k Kernel, sr *semiring.Semiring, workers int, out passOutput) spmat.Matrix {
	bv, colFlops := &pl.bv, pl.colFlops
	aRows, _ := pl.a.Dims()
	_, bCols := pl.b.Dims()
	s := pl.scratch
	s.bounds = flopBounds(colFlops, workers, s.bounds)
	bounds := s.bounds
	out = out.over(bounds)
	ptr := pointers(out, bv.n+1)
	// A doubly-compressed product lists its columns in an array of its own,
	// compacted in place by newOutput: B's is B's.
	var jc []int32
	if bv.compressed {
		jc = copyColumns(out, bv.jc)
	}
	s.mul = mulPass{pl: pl, sr: sr, plusTimes: sr.IsPlusTimes(), sorted: k.sorts(), rows: aRows, ptr: ptr}
	ir, num := onePass(bounds, colFlops, aRows, &s.mul, out)
	s.mul = mulPass{}
	return newOutput(aRows, bCols, jc, bv.compressed, ptr, ir, num, k.sorts(), out)
}

// mulPass is what every column of one Plan.multiply shares: the plan, the
// semiring, whether columns drain sorted, A's height and the output's column
// pointers, which the ranges fill with the slots' entry counts. It lives in
// the plan's scratch.
type mulPass struct {
	pl        *Plan
	sr        *semiring.Semiring
	plusTimes bool
	sorted    bool
	rows      int32
	ptr       []int64
}

// fill computes the product columns of B's slots [lo, hi) of one range
// (onePass).
func (m *mulPass) fill(w *mmWorker, lo, hi int32) {
	colFlops := m.pl.colFlops
	for p := lo; p < hi; p++ {
		if colFlops[p] == 0 {
			continue
		}
		start := len(w.rows)
		w.mulColumn(m.pl, p, m.sr, m.plusTimes, m.rows, m.sorted)
		m.ptr[p+1] = int64(len(w.rows) - start)
	}
}

// mulColumn appends the product column of B's slot p to the worker's chunk:
// accumulated in the table and drained ascending when sorted, in insertion
// order otherwise. rows is A's height.
func (w *mmWorker) mulColumn(pl *Plan, p int32, sr *semiring.Semiring, plusTimes bool, rows int32, sorted bool) {
	w.acc.sizeFor(pl.colFlops[p], rows)
	hashAccumulateColumn(&w.acc, &pl.av, pl.aSlots(p), pl.bVals(p), sr, plusTimes)
	w.drain(sorted)
}

// ParallelSpGEMM is MulMat over CSC operands: the selected kernel with
// threads worker goroutines, CSC in and CSC out.
func ParallelSpGEMM(k Kernel, a, b *spmat.CSC, sr *semiring.Semiring, threads int) *spmat.CSC {
	return MulMat(k, a, b, sr, threads).(*spmat.CSC)
}

// drain appends the accumulator's column to the worker's chunk: in insertion
// order, or ascending when the output is to be sorted — by a walk of the
// table when it is direct and small for the column (hashAccum.walks), else
// by sorting the drained column in place.
func (w *mmWorker) drain(sorted bool) {
	if sorted && w.acc.walks() {
		w.rows, w.vals = w.acc.drainAscendingInto(w.rows, w.vals)
		return
	}
	start := len(w.rows)
	w.rows, w.vals = w.acc.drainInto(w.rows, w.vals)
	if sorted {
		w.sorter.Sort(w.rows[start:], w.vals[start:])
	}
}

// newOutput wraps the entry arrays of a one-pass output in its column
// metadata. ptr arrives holding the slots' entry counts, slot p's in
// ptr[p+1], as the ranges left them, and becomes the column pointers by a
// prefix sum in place. A CSC output's slots are its columns. Slot p of a DCSC
// output is column jc[p], and only the slots that received entries keep a
// JC/CP entry: jc and ptr are compacted where they lie — no O(cols) array
// exists at any point. A lent output (out) is lent with its arrays whole.
func newOutput(rows, cols int32, jc []int32, dcsc bool, ptr []int64, ir []int32, num []float64, sorted bool, out passOutput) spmat.Matrix {
	stored := len(ptr) - 1
	if !dcsc {
		for p := range stored {
			ptr[p+1] += ptr[p]
		}
	} else {
		stored = 0
		for p, n := range ptr[1:] {
			if n > 0 {
				jc[stored] = jc[p]
				ptr[stored+1] = ptr[stored] + n
				stored++
			}
		}
	}
	if nnz := ptr[stored]; nnz != int64(len(ir)) || nnz != int64(len(num)) {
		panic(fmt.Sprintf("localmm: columns count %d entries, the ranges filled %d", nnz, len(ir)))
	}
	var m spmat.Matrix
	if !dcsc {
		m = &spmat.CSC{Rows: rows, Cols: cols, ColPtr: ptr, RowIdx: ir, Val: num, SortedCols: sorted}
	} else {
		m = &spmat.DCSC{Rows: rows, Cols: cols, JC: jc[:stored], CP: ptr[:stored+1], IR: ir, Num: num, SortedCols: sorted}
	}
	if out == lentOutput {
		spmat.Lend(m, ir, num, ptr, jc)
	}
	return m
}

// checkMergeShapes verifies all operands share one shape and returns it.
func checkMergeShapes(mats []spmat.Matrix) (rows, cols int32) {
	if len(mats) == 0 {
		panic("localmm: merge of zero matrices")
	}
	rows, cols = mats[0].Dims()
	for _, m := range mats {
		if r, c := m.Dims(); r != rows || c != cols {
			panic(fmt.Sprintf("localmm: merge shape mismatch %v vs %dx%d", m, rows, cols))
		}
	}
	return rows, cols
}

// MergeMat adds same-shaped matrices entry-wise with the hash merger over
// any format combination (operands may even mix formats, as Merge-Fiber
// sees under the auto heuristic): MulMerge with no plan, owned. It runs at
// most threads workers (clampThreads, by input entries) over ranges balanced
// by input entries. When every operand is DCSC the slots are the union of
// their stored columns — a k-way merge of the ascending column lists,
// O(Σ nzc) — and the output is DCSC; otherwise the slots are the columns and
// the output is CSC. The output's columns are sorted when sortOutput asks
// for it. The Merger argument is ignored — MergerHash is the one merger —
// and stays only because the wall-clock benchmark's serial replay passes one.
//
// A sorted input can still contain duplicate row indices within a column
// (e.g. the concatenated outputs of independent SUMMA stages). The merge
// accumulates those duplicates, so the output of a real merge is
// duplicate-free. A single operand is its own sum and is returned as it is —
// the operand, not a copy of it, so the caller must treat the result as
// shared with whoever holds the operand — unless sorted output is asked of
// an unsorted one, which is sorted on a copy.
func MergeMat(_ Merger, mats []spmat.Matrix, sr *semiring.Semiring, sortOutput bool, threads int) spmat.Matrix {
	out, _ := MulMerge(KernelHashUnsorted, mats, nil, 0, 0, sr, sortOutput, false, threads)
	return out
}

// mergeSlots returns the slots of a merge of the operands viewed by views,
// cols columns wide, and the input entries of each, in buf's array when it
// has room: the union of the stored columns — in union's array when it has
// room — when every operand is doubly-compressed (the output is then DCSC,
// slots.compressed), and every column otherwise.
func mergeSlots(views []colView, cols int32, buf []int64, union []int32) (colView, []int64) {
	allDCSC := true
	for i := range views {
		allDCSC = allDCSC && views[i].compressed
	}
	if allDCSC {
		jc, colIn := unionCols(views, buf, union)
		return colView{n: int32(len(colIn)), compressed: true, jc: jc}, colIn
	}
	colIn := slices.Grow(buf[:0], int(cols))[:cols]
	clear(colIn)
	for i := range views {
		v := &views[i]
		for p := int32(0); p < v.n; p++ {
			colIn[v.index(p)] += v.ptr[p+1] - v.ptr[p]
		}
	}
	return colView{n: cols}, colIn
}

// mergeColumn appends the merge of one column's parts, in operand order, to
// the worker's chunk: accumulated in the table — sized for want
// contributions into a rows-tall operand — and drained in insertion order
// or, when sorted, ascending.
func (w *mmWorker) mergeColumn(parts []colPart, want int64, rows int32, sr *semiring.Semiring, plusTimes, sorted bool) {
	w.acc.sizeFor(want, rows)
	hashAccumulateParts(&w.acc, parts, sr, plusTimes)
	w.drain(sorted)
}

// unionCols k-way-merges the stored-column lists of doubly-compressed
// operands into their ascending union, with each union column's total entry
// count (in the arrays of cols and buf when they have room).
func unionCols(views []colView, buf []int64, cols []int32) (union []int32, colIn []int64) {
	total := 0
	for i := range views {
		total += int(views[i].n)
	}
	union, colIn = slices.Grow(cols[:0], total), slices.Grow(buf[:0], total)
	// A merge has a handful of operands (q stages, or l fiber pieces): their
	// cursors fit on the stack.
	var cursors [16]int32
	idx := cursors[:min(len(views), len(cursors))]
	if len(views) > len(cursors) {
		idx = make([]int32, len(views))
	}
	for {
		minJ := int32(-1)
		for i := range views {
			if idx[i] < views[i].n {
				if j := views[i].jc[idx[i]]; minJ < 0 || j < minJ {
					minJ = j
				}
			}
		}
		if minJ < 0 {
			return union, colIn
		}
		var n int64
		for i := range views {
			if v := &views[i]; idx[i] < v.n && v.jc[idx[i]] == minJ {
				n += v.ptr[idx[i]+1] - v.ptr[idx[i]]
				idx[i]++
			}
		}
		union = append(union, minJ)
		colIn = append(colIn, n)
	}
}

// seek positions the worker's per-operand cursors at the first stored column
// >= j of every doubly-compressed operand. A worker visits the columns of
// its range in ascending order, so from here gather only steps forward.
func (w *mmWorker) seek(views []colView, j int32) {
	w.pos = append(w.pos[:0], make([]int, len(views))...)
	for i := range views {
		if v := &views[i]; v.compressed {
			w.pos[i], _ = slices.BinarySearch(v.jc, j)
		}
	}
}

// gather collects the operands' non-empty contributions to column j into the
// worker's scratch, in operand order (the order the merge accumulates in,
// which fixes the floating-point result), advancing the cursors past j.
func (w *mmWorker) gather(views []colView, j int32) []colPart {
	parts := w.parts[:0]
	for i := range views {
		v := &views[i]
		p := j
		if v.compressed {
			if w.pos[i] == int(v.n) || v.jc[w.pos[i]] != j {
				continue
			}
			p = int32(w.pos[i])
			w.pos[i]++
		}
		if rows, vals := v.col(p); len(rows) > 0 {
			parts = append(parts, colPart{rows: rows, vals: vals})
		}
	}
	w.parts = parts
	return parts
}
