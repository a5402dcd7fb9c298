package localmm

import (
	"math"
	"slices"
	"sync"

	"repro/internal/spmat"
)

// This file is the execution plan of the local SpGEMM and merge of
// Sec. IV-D: the paper runs 16 threads per MPI process on Cori-KNL, and the
// local kernels are where that parallelism lives. Every kernel, the merge,
// every storage format and thread count run the same one-pass
// accumulate-then-place plan:
//
//  1. the output columns are cut into contiguous ranges holding near-equal
//     shares of the work (flops for a multiply, input entries for a merge) —
//     not near-equal shares of the columns, which degenerates badly on
//     power-law matrices where a handful of columns carry most of the work;
//  2. each worker hashes the columns of its range exactly once, appending every finished column to its own reusable scratch and
//     recording the column's entry count;
//  3. the output's entry arrays are made once, at their exact size, from the
//     chunks themselves; and
//  4. each worker's chunk lands with one copy at the offset of its range's
//     first column — ranges are contiguous, so placement is a memcpy.
//
// Steps 3 and 4 say who owns the output. A call that ran two or more ranges
// allocates the arrays and places the chunks in parallel. A call that ran one
// range — every call too small for a second worker, which is every stage of
// bench/'s workloads — has nothing to place: its output is an unzeroed copy
// of the one chunk (append onto an empty slice: the runtime does not clear
// what the copy overwrites), exactly sized and owned by the caller like the
// multi-range one. The exception is Plan.Mul and MulMerge with lend, for an
// output read once and dropped: its single-range output is the chunk itself,
// nothing copied, with column metadata off the free list too, all lent
// (spmat.Lend) until the caller gives it back (spmat.Release). MulMat,
// MergeMat, the masked and the sparse×dense kernels never lend.
//
// No column is hashed twice: the sizes the output needs fall out of the
// accumulation itself — each column's entry count is left in the output's own
// column pointers and prefix-summed in place — so the multiply and the merge
// carry no symbolic pass of their own (Alg 3's LOCALSYMBOLIC remains a
// separate entry point, SymbolicMat). The caller's goroutine executes one
// range itself, so one worker starts no goroutine at all; further ranges run
// on their own goroutines, which wait for the allocation and then place their
// chunk in parallel. The thread count a caller passes is the most workers it
// allows (in the distributed multiply: the cores its compute section holds);
// a call runs fewer when it has fewer column slots or too little work to pay
// for them (clampThreads).
//
// Every output column is computed by one worker in serial operand order and
// drained in hash-insertion order, so values and the entry order inside
// unsorted columns are bit-identical for every thread count.

// mmWorker is one range's reusable scratch: a hash accumulator for the
// kernels and the merge, a row set for the symbolic pass, the column views a
// merge gathers and its per-operand column cursors, the pair sorter's
// buffers, the stage scratch (stage: the planned stages' columns of one
// output column on their way into a fused merge, MulMerge) and the worker's
// place in each planned stage (at), and the chunk — the finished columns of
// the range (rows, vals).
// All of it is grown, never re-made, and kept across calls on a free list.
// Only the chunk can leave: lent out as an output's entry arrays
// (Plan.Mul, MulMerge), it goes back to spmat's free list of arrays with the
// output (spmat.Release), while the rest of the worker has long gone back for
// the next call to find warm; a pass that makes output fits the chunk to its
// range's entry bound first (fitChunk). The column metadata of a lent output
// is no worker's: it is drawn for the output (pointers, copyColumns) and goes
// back with it.
//
// The inner loops write this struct constantly — every new row moves the
// accumulator's occupied length, every drained column the chunk's — and
// concurrent workers' structs can be neighbours on the heap, so the fields
// are held by value between two cache lines of padding: no line a worker
// writes is shared with anything another core touches.
type mmWorker struct {
	_      [64]byte
	acc    hashAccum
	set    rowSet
	parts  []colPart
	pos    []int
	at     []stageAt
	rows   []int32
	vals   []float64
	stage  chunk
	sorter spmat.PairSorter
	_      [64]byte
}

// chunk is the pair of entry arrays a worker fills.
type chunk struct {
	rows []int32
	vals []float64
}

// fitChunk makes the worker's chunk hold n entries, the entry bound of the
// range it is about to fill, so no drained column ever grows it: an array
// that is large enough stays, a smaller one goes back to spmat's free list
// and the best fit comes from it (spmat.Draw).
func (w *mmWorker) fitChunk(n int64) {
	if int64(cap(w.rows)) < n {
		spmat.Give(w.rows)
		w.rows = spmat.Draw[int32](int(n))
	}
	if int64(cap(w.vals)) < n {
		spmat.Give(w.vals)
		w.vals = spmat.Draw[float64](int(n))
	}
}

// idleWorkers is the free list of worker scratch and of released plans'
// arrays (Plan.Release). It holds strong references on purpose: a
// distributed multiply makes thousands of small kernel calls between garbage
// collections, and scratch kept only in a sync.Pool is dropped by every
// collection and regrown from nothing. The arrays a lent output held are not
// kept here: they go back to spmat's free list.
var idleWorkers struct {
	sync.Mutex
	ws    []*mmWorker
	plans []*planScratch
}

// The free list keeps at most maxIdleWorkers workers and as many released
// plans, none with a table above spmat.MaxKeptEntries entries: a burst of
// concurrent callers or one huge product pays for its scratch again next
// time instead of pinning it for the life of the process. (The direct tables
// are bounded by directTableBytes already.)
const maxIdleWorkers = 64

// getWorker takes scratch off the free list, most recently used first.
func getWorker() *mmWorker {
	idleWorkers.Lock()
	defer idleWorkers.Unlock()
	if n := len(idleWorkers.ws); n > 0 {
		w := idleWorkers.ws[n-1]
		idleWorkers.ws = idleWorkers.ws[:n-1]
		spmat.Unpark(w.rows)
		spmat.Unpark(w.vals)
		return w
	}
	return new(mmWorker)
}

// putWorker returns scratch to the free list. The column views are dropped
// first: the other fields own their memory, but a retained view would keep a
// whole operand matrix reachable across unrelated work. Then every table
// that grew past spmat.MaxKeptEntries is dropped; the sorter's buffers are
// sized by the longest column the chunk held, so they go with the chunk. The
// chunk was drawn from spmat's list, so a chunk the worker drops — or that
// a worker the free list has no room for holds — is given back to it.
func putWorker(w *mmWorker) {
	clear(w.parts[:cap(w.parts)])
	if cap(w.parts) > spmat.MaxKeptEntries {
		w.parts = nil
	}
	if max(cap(w.rows), cap(w.vals)) > spmat.MaxKeptEntries {
		w.giveChunk()
		w.sorter = spmat.PairSorter{}
	}
	if max(cap(w.stage.rows), cap(w.stage.vals)) > spmat.MaxKeptEntries {
		w.stage, w.sorter = chunk{}, spmat.PairSorter{}
	}
	if max(cap(w.acc.rows), cap(w.acc.vals)) > spmat.MaxKeptEntries {
		w.acc = hashAccum{}
	}
	if cap(w.set.rows) > spmat.MaxKeptEntries {
		w.set = rowSet{}
	}
	idleWorkers.Lock()
	kept := len(idleWorkers.ws) < maxIdleWorkers
	if kept {
		// An idle worker's chunk is idle, as the list's arrays are: spmat's
		// ledger counts it given back until the worker is taken again.
		spmat.Park(w.rows)
		spmat.Park(w.vals)
		idleWorkers.ws = append(idleWorkers.ws, w)
	}
	idleWorkers.Unlock()
	if !kept {
		w.giveChunk()
	}
}

// giveChunk gives the worker's chunk back to spmat's list.
func (w *mmWorker) giveChunk() {
	spmat.Give(w.rows)
	spmat.Give(w.vals)
	w.rows, w.vals = nil, nil
}

// getPlanScratch takes a plan's arrays off the free list, most recently
// released first.
func getPlanScratch() *planScratch {
	idleWorkers.Lock()
	defer idleWorkers.Unlock()
	if n := len(idleWorkers.plans); n > 0 {
		s := idleWorkers.plans[n-1]
		idleWorkers.plans[n-1], idleWorkers.plans = nil, idleWorkers.plans[:n-1]
		return s
	}
	return new(planScratch)
}

// putPlanScratch returns a plan and its arrays to the free list under the
// workers' bounds: an array above spmat.MaxKeptEntries is dropped, and the
// list keeps at most maxIdleWorkers plans. The plan, its merge pass and the
// merge operands' views let go of the matrices they read first, as a
// worker's views do (putWorker), and while spmat.PoisonReleased is set the
// arrays and the flop count are poisoned.
func putPlanScratch(s *planScratch) {
	clear(s.views[:cap(s.views)])
	s.plan = Plan{}
	s.pass.reset()
	if spmat.PoisonReleased.Load() {
		s.poison()
	}
	if max(cap(s.slots), cap(s.sums)) > spmat.MaxKeptEntries {
		s.slots, s.sums = nil, nil
	}
	if max(cap(s.colFlops), cap(s.bounds), cap(s.winPtr), cap(s.winJC), cap(s.colIn), cap(s.union)) > spmat.MaxKeptEntries {
		s.colFlops, s.bounds, s.winPtr, s.winJC, s.colIn, s.union = nil, nil, nil, nil, nil, nil
	}
	idleWorkers.Lock()
	defer idleWorkers.Unlock()
	if len(idleWorkers.plans) < maxIdleWorkers {
		idleWorkers.plans = append(idleWorkers.plans, s)
	}
}

// poison overwrites a released plan: every slot, window column and union
// column past any column, every running sum, flop count and entry count −1,
// its Flops too.
func (s *planScratch) poison() {
	s.plan.Flops = -1
	for _, a := range [][]int32{s.slots[:cap(s.slots)], s.winJC[:cap(s.winJC)], s.union[:cap(s.union)]} {
		for i := range a {
			a[i] = math.MaxInt32
		}
	}
	for _, a := range [][]int64{s.sums[:cap(s.sums)], s.colFlops[:cap(s.colFlops)], s.winPtr[:cap(s.winPtr)], s.colIn[:cap(s.colIn)]} {
		for i := range a {
			a[i] = -1
		}
	}
}

// flopBounds partitions columns into parts contiguous ranges whose work
// totals (colWork: flop counts for a multiply, input entries for a merge)
// are as even as a contiguous split allows, in buf's array when it has room.
// Falls back to a count split when there is no work to balance.
func flopBounds(colWork []int64, parts int, buf []int32) []int32 {
	n := int32(len(colWork))
	var total int64
	for _, f := range colWork {
		total += f
	}
	if total == 0 {
		return spmat.PartBoundsInto(buf, n, parts)
	}
	bounds := slices.Grow(buf[:0], parts+1)[:parts+1]
	bounds[0], bounds[parts] = 0, n
	var acc int64
	j := int32(0)
	for i := 1; i < parts; i++ {
		target := total * int64(i) / int64(parts)
		for j < n && acc < target {
			acc += colWork[j]
			j++
		}
		bounds[i] = j
	}
	return bounds
}

// workPerExtraWorker is the work — flops of a multiply or a symbolic pass,
// input entries of a merge — a call must carry for every worker beyond the
// caller's own goroutine. Below it a second worker costs more than it saves:
// its wake-up, its cold scratch and the wait at the allocation barrier are
// fixed, the work it takes over is not. BenchmarkWorkerSpawnCrossover (make
// bench-kernels), unsorted hash at 40 flops per column on a two-core 2.1 GHz
// Xeon, one worker → two, re-taken with the single-range output an unzeroed
// copy and the direct table stamped (one worker's call got about a third
// cheaper below the floor, two workers' placement did not change, and the
// crossover is where the table this replaces had it), one sample a cell:
//
//	flops     CSC B (µs)       DCSC B (µs)
//	  4 k       24 →   38        25 →   34
//	  8 k       49 →   63        48 →   64
//	 16 k       98 →  123        87 →  117
//	 32 k      178 →  216       177 →  209
//	 64 k      351 →  316       350 →  312
//	128 k     1165 →  616       693 →  625
//	256 k     1811 → 1286      1455 → 1161
//
// A second worker loses 30–55 % up to 8 k, 25–35 % at 16 k and about 20 % at
// 32 k, and wins 10 % at 64 k; above that it wins 10–30 % (the 128 k
// one-worker CSC cell caught a neighbour's load). The five-pass snapshot
// checked in as BENCH_kernels.json, on a busier host, puts the crossover one
// step lower by its medians: two workers lose 30–46 % up to 2 k, 15–26 % at
// 4–8 k and 6–8 % at 16 k, and win 3–9 % at 32–64 k and 3–20 % above; at
// 32 k and 64 k the two cells' fastest-to-slowest samples overlap. That loop
// is hot, which flatters the wake-up; a stage of the distributed multiply
// finds its second core cold. Hence 64 k: the smallest size at which the
// worker is no longer a loss in either run. (The stages of bench/'s
// protein-batched workload carry about 9 k flops each; spawning there made
// Threads=2 6 % slower than Threads=1.)
const workPerExtraWorker = 1 << 16

// Workers returns the most workers a call carrying work (flops of a multiply
// or a symbolic pass, input entries of a merge) starts when its caller allows
// threads: one extra worker per workPerExtraWorker of work, at least one. A
// caller that must reserve a core per worker (core's compute sections) asks
// this before it reserves, so a small call reserves nothing.
func Workers(threads int, work int64) int {
	return max(1, min(threads, 1+int(work/workPerExtraWorker)))
}

// clampThreads turns the thread count a caller allows into the worker count
// a call runs: what its work pays for (Workers), and at most one worker per
// column slot.
func clampThreads(threads int, slots int32, work int64) int {
	return max(1, min(Workers(threads, work), int(slots)))
}

// passOutput is what a pass does with the chunks its ranges filled.
type passOutput int

const (
	noOutput    passOutput = iota // nothing: the symbolic and dense kernels fill no chunk
	ownedOutput                   // exactly-sized arrays the caller owns
	lentOutput                    // the chunk itself when one range ran, owned arrays otherwise
)

// outputFor is the output a caller's lend asks of a pass.
func outputFor(lend bool) passOutput {
	if lend {
		return lentOutput
	}
	return ownedOutput
}

// over is the output a pass over bounds makes of out: lent only when one
// range will run.
func (out passOutput) over(bounds []int32) passOutput {
	if first, last := nonEmptyRanges(bounds); out == lentOutput && first != last {
		return ownedOutput
	}
	return out
}

// pointers returns n zeroed column pointers for a pass's output: drawn from
// spmat's free list when the output is lent, a new array otherwise.
func pointers(out passOutput, n int32) []int64 {
	if out != lentOutput {
		return make([]int64, n)
	}
	ptr := spmat.Draw[int64](int(n))
	clear(ptr)
	return ptr
}

// copyColumns returns a copy of cols, the stored columns of a
// doubly-compressed output: drawn from spmat's free list when the output is
// lent, a new array otherwise.
func copyColumns(out passOutput, cols []int32) []int32 {
	if out != lentOutput {
		return slices.Clone(cols)
	}
	jc := spmat.Draw[int32](len(cols))
	copy(jc, cols)
	return jc
}

// filler is a pass's range body: fill computes the columns [lo, hi) of one
// range on the worker w (onePass). A pass that lives in plan scratch
// (fusedPass) is its own filler, so a warm call makes no closure.
type filler interface {
	fill(w *mmWorker, lo, hi int32)
}

// fillFunc is a range body written as a function.
type fillFunc func(w *mmWorker, lo, hi int32)

func (f fillFunc) fill(w *mmWorker, lo, hi int32) { f(w, lo, hi) }

// runWorkers executes fn once per non-empty column range, each with its own
// scratch: the last range on the caller's goroutine, the others on theirs.
func runWorkers(bounds []int32, fn func(w *mmWorker, lo, hi int32)) {
	onePass(bounds, nil, 0, fillFunc(fn), noOutput)
}

// nonEmptyRanges returns the first and the last range of bounds that holds a
// column (−1, −1 when none does).
func nonEmptyRanges(bounds []int32) (first, last int) {
	first, last = -1, -1
	for t := 0; t+1 < len(bounds); t++ {
		if bounds[t] < bounds[t+1] {
			if first < 0 {
				first = t
			}
			last = t
		}
	}
	return first, last
}

// onePass runs the plan described at the top of this file. f computes
// the columns [lo, hi) of one range (filler.fill), appending them to w.rows/w.vals, which
// arrive empty and, unless out is noOutput, with room for the range's entry
// bound (fillRange), which rows, the output's row count, caps column by
// column. Unless out is noOutput the pass returns the output's
// entry arrays, the ranges' chunks back to back in range order: a copy of the
// chunk when one range ran, an allocation the ranges place their chunks into
// when several did — or, under lentOutput with one range that filled
// anything, the chunk itself, its whole capacity. One range runs on the
// caller's goroutine with nothing else to coordinate.
func onePass(bounds []int32, colWork []int64, rows int32, f filler, out passOutput) (ir []int32, num []float64) {
	first, last := nonEmptyRanges(bounds)
	if last < 0 {
		return []int32{}, []float64{}
	}
	if first < last {
		return manyRanges(bounds, last, colWork, rows, f, out)
	}
	w := getWorker()
	w.fillRange(bounds[last], bounds[last+1], colWork, rows, f, out)
	switch {
	case out == noOutput:
	case out == lentOutput && len(w.rows) > 0:
		ir, num = w.rows, w.vals
		w.rows, w.vals = nil, nil
	default:
		ir, num = slices.Clip(append([]int32{}, w.rows...)), slices.Clip(append([]float64{}, w.vals...))
	}
	putWorker(w)
	return ir, num
}

// fillRange runs f over the range [lo, hi) on the worker's emptied chunk,
// fitted first, unless out is noOutput, to the range's entry bound: its
// columns' colWork, each capped at the output's row count rows, neither of
// which an output column exceeds.
func (w *mmWorker) fillRange(lo, hi int32, colWork []int64, rows int32, f filler, out passOutput) {
	if out != noOutput {
		var bound int64
		for _, c := range colWork[lo:hi] {
			bound += min(c, int64(rows))
		}
		w.fitChunk(bound)
	}
	w.rows, w.vals = w.rows[:0], w.vals[:0]
	f.fill(w, lo, hi)
}

// manyRanges is onePass over two or more non-empty ranges, the last of them
// last: each range but the last on a goroutine of its own, which waits for the
// allocation and then places its chunk; the output, unless out is noOutput,
// is always owned.
func manyRanges(bounds []int32, last int, colWork []int64, rows int32, f filler, out passOutput) (ir []int32, num []float64) {
	ws := make([]*mmWorker, last+1)
	offs := make([]int, last+1)
	place := func(t int) {
		copy(ir[offs[t]:], ws[t].rows)
		copy(num[offs[t]:], ws[t].vals)
	}

	// Spawned ranges wait on allocated between filling and placing; it is
	// closed once ir, num and offs are set.
	allocated := make(chan struct{})
	var filled, placed sync.WaitGroup
	for t := 0; t < last; t++ {
		if bounds[t] == bounds[t+1] {
			continue
		}
		ws[t] = getWorker()
		filled.Add(1)
		placed.Add(1)
		go func(t int) {
			defer placed.Done()
			ws[t].fillRange(bounds[t], bounds[t+1], colWork, rows, f, out)
			filled.Done()
			if out != noOutput {
				<-allocated
				place(t)
			}
		}(t)
	}
	ws[last] = getWorker()
	ws[last].fillRange(bounds[last], bounds[last+1], colWork, rows, f, out)
	filled.Wait()
	if out != noOutput {
		total := 0
		for t, w := range ws {
			if w != nil {
				offs[t] = total
				total += len(w.rows)
			}
		}
		ir, num = make([]int32, total), make([]float64, total)
		close(allocated)
		place(last)
	}
	placed.Wait()
	for _, w := range ws {
		if w != nil {
			putWorker(w)
		}
	}
	return ir, num
}
