package localmm

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/spmat"
)

// This file is the execution plan of the local SpGEMM and merge of
// Sec. IV-D: the paper runs 16 threads per MPI process on Cori-KNL, and the
// local kernels are where that parallelism lives. Every kernel, merger,
// storage format and thread count runs the same one-pass
// accumulate-then-place plan:
//
//  1. the output columns are cut into contiguous ranges holding near-equal
//     shares of the work (flops for a multiply, input entries for a merge) —
//     not near-equal shares of the columns, which degenerates badly on
//     power-law matrices where a handful of columns carry most of the work;
//  2. each worker hashes (or heap-merges) the columns of its range exactly
//     once, appending every finished column to its own reusable scratch and
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
// multi-range one. The exceptions are Plan.MulLent, MergeLent and MulMerge
// with lend, for an output read once and dropped: its single-range output is
// the chunk itself, nothing copied, on loan until the caller hands it back
// (Loan.Return). MulMat, Plan.Mul, MergeMat, the masked and the sparse×dense
// kernels never lend.
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

// mmWorker is one range's reusable scratch: a hash accumulator for the hash
// kernels, a row set for the symbolic pass, a heap and column views for the
// heap kernels, per-operand column cursors for merges, the pair sorter's
// buffers, the stage scratch (stage: the planned stages' columns of one
// output column on their way into a fused merge, MulMerge) and the worker's
// place in each planned stage (at), and the chunk — the finished columns of
// the range (rows, vals).
// All of it is grown, never re-made, and kept across calls on a free list.
// Only the chunk can leave: lent out as an output's entry arrays
// (Plan.MulLent, MergeLent, MulMerge), it comes back to a list of its own
// while the rest of the worker has long gone back for the next call to find
// warm.
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
	heap   rowHeap
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

// bytes is what the chunk's arrays hold on to.
func (c chunk) bytes() int64 { return 4*int64(cap(c.rows)) + 8*int64(cap(c.vals)) }

// idleWorkers is the free list of worker scratch and, beside it, of the
// chunks that came back from a loan and of released plans' arrays
// (Plan.Release). It holds strong references on purpose: a
// distributed multiply makes thousands of small kernel calls between garbage
// collections, and scratch kept only in a sync.Pool is dropped by every
// collection and regrown from nothing.
var idleWorkers struct {
	sync.Mutex
	ws         []*mmWorker
	chunks     []chunk
	chunkBytes int64 // Σ bytes() over chunks
	plans      []*planScratch
}

// The free list keeps at most maxIdleWorkers workers, and a worker keeps no
// table of more than maxKeptEntries entries — chunk, stage scratch,
// accumulator, row set, heap, column views: a burst of concurrent callers or
// one huge product pays for its scratch again next time instead of pinning it
// for the life of the process. (The direct tables are bounded by
// directTableBytes already.) The chunks that come back from loans are bounded
// in bytes, all of them together: a job on a p-rank grid with q stages and l
// layers has up to p·(q + 2l + 1) of them out at once — a pipelined batch's
// stage products, two batches' Merge-Layer outputs, a discarded batch — not
// one a core, and the list keeps what fits maxIdleChunkBytes of what comes
// back and drops the rest. Released plans are kept like workers: at most
// maxIdleWorkers of them, with no array above maxKeptEntries.
const (
	maxIdleWorkers    = 64
	maxKeptEntries    = 1 << 22
	maxIdleChunkBytes = 64 << 20
)

// getWorker takes scratch off the free list, most recently used first. A
// worker whose chunk went out on loan gets the most recently returned one.
func getWorker() *mmWorker {
	idleWorkers.Lock()
	defer idleWorkers.Unlock()
	var w *mmWorker
	if n := len(idleWorkers.ws); n > 0 {
		w, idleWorkers.ws = idleWorkers.ws[n-1], idleWorkers.ws[:n-1]
	} else {
		w = new(mmWorker)
	}
	if n := len(idleWorkers.chunks); n > 0 && cap(w.rows) == 0 {
		c := idleWorkers.chunks[n-1]
		idleWorkers.chunks[n-1], idleWorkers.chunks = chunk{}, idleWorkers.chunks[:n-1]
		idleWorkers.chunkBytes -= c.bytes()
		w.rows, w.vals = c.rows, c.vals
	}
	return w
}

// putWorker returns scratch to the free list. The column views are dropped
// first: the other fields own their memory, but a retained view would keep a
// whole operand matrix reachable across unrelated work. Then every table
// that grew past maxKeptEntries is dropped; the sorter's buffers are sized
// by the longest column the chunk held, so they go with the chunk.
func putWorker(w *mmWorker) {
	clear(w.parts[:cap(w.parts)])
	if cap(w.parts) > maxKeptEntries {
		w.parts = nil
	}
	if cap(w.rows) > maxKeptEntries {
		w.rows, w.vals, w.sorter = nil, nil, spmat.PairSorter{}
	}
	if max(cap(w.stage.rows), cap(w.stage.vals)) > maxKeptEntries {
		w.stage, w.sorter = chunk{}, spmat.PairSorter{}
	}
	if max(cap(w.acc.rows), cap(w.acc.vals)) > maxKeptEntries {
		w.acc = hashAccum{}
	}
	if cap(w.set.rows) > maxKeptEntries {
		w.set = rowSet{}
	}
	if cap(w.heap) > maxKeptEntries {
		w.heap = nil
	}
	idleWorkers.Lock()
	defer idleWorkers.Unlock()
	if len(idleWorkers.ws) < maxIdleWorkers {
		idleWorkers.ws = append(idleWorkers.ws, w)
	}
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

// putPlanScratch returns a plan's arrays to the free list under the workers'
// bounds: an array above maxKeptEntries is dropped, and the list keeps at
// most maxIdleWorkers plans' arrays.
func putPlanScratch(s *planScratch) {
	if max(cap(s.slots), cap(s.sums)) > maxKeptEntries {
		s.slots, s.sums = nil, nil
	}
	if max(cap(s.colFlops), cap(s.winPtr), cap(s.winJC), cap(s.colIn)) > maxKeptEntries {
		s.colFlops, s.winPtr, s.winJC, s.colIn = nil, nil, nil, nil
	}
	idleWorkers.Lock()
	defer idleWorkers.Unlock()
	if len(idleWorkers.plans) < maxIdleWorkers {
		idleWorkers.plans = append(idleWorkers.plans, s)
	}
}

// poison overwrites a released plan's arrays: every slot and window column
// past any column, every running sum, flop count and entry count −1.
func (s *planScratch) poison() {
	for _, a := range [][]int32{s.slots[:cap(s.slots)], s.winJC[:cap(s.winJC)]} {
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

// Loan is a single-range output's claim on the chunk its entry arrays are
// (Plan.MulLent, MergeLent, MulMerge). The zero Loan holds nothing;
// returning it does nothing.
type Loan struct{ c chunk }

// Return hands the chunk back to the free list, which keeps it if it has no
// array above maxKeptEntries and the returned chunks stay within
// maxIdleChunkBytes with it. The product it was lent to must not be read
// afterwards: the next kernel call on any goroutine fills the same arrays.
// Returning twice is returning once.
func (l *Loan) Return() {
	c, n := l.c, l.c.bytes()
	l.c = chunk{}
	if n == 0 {
		return
	}
	if PoisonReturnedChunks.Load() {
		c.poison()
	}
	idleWorkers.Lock()
	defer idleWorkers.Unlock()
	if max(cap(c.rows), cap(c.vals)) <= maxKeptEntries && idleWorkers.chunkBytes+n <= maxIdleChunkBytes {
		idleWorkers.chunks = append(idleWorkers.chunks, c)
		idleWorkers.chunkBytes += n
	}
}

// PoisonReturnedChunks is a hook for tests, here and in core: while it is
// set, Return overwrites the whole chunk — every row −1, every value NaN —
// before the free list sees it, so a product still read after its loan ended
// fails the comparison it takes part in instead of passing by luck of timing.
var PoisonReturnedChunks atomic.Bool

func (c chunk) poison() {
	rows, vals := c.rows[:cap(c.rows)], c.vals[:cap(c.vals)]
	for i := range rows {
		rows[i] = -1
	}
	for i := range vals {
		vals[i] = math.NaN()
	}
}

// flopBounds partitions columns into parts contiguous ranges whose work
// totals (colWork: flop counts for a multiply, input entries for a merge)
// are as even as a contiguous split allows. Falls back to a count split
// when there is no work to balance.
func flopBounds(colWork []int64, parts int) []int32 {
	n := int32(len(colWork))
	var total int64
	for _, f := range colWork {
		total += f
	}
	if total == 0 {
		return spmat.PartBounds(n, parts)
	}
	bounds := make([]int32, parts+1)
	bounds[parts] = n
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
// copy and the direct table stamped (ISSUE 24: one worker's call got about a
// third cheaper below the floor, two workers' placement did not change, and
// the crossover is where the table this replaces had it), the run checked in
// as BENCH_kernels.json:
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
// one-worker CSC cell caught a neighbour's load). That loop is hot, which
// flatters the wake-up; a stage of the distributed multiply finds its second
// core cold. Hence 64 k: the smallest size at which the worker is no longer a
// loss. (The stages of bench/'s protein-batched workload carry about 9 k
// flops each; spawning there made Threads=2 6 % slower than Threads=1.)
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

// runWorkers executes fn once per non-empty column range, each with its own
// scratch: the last range on the caller's goroutine, the others on theirs.
func runWorkers(bounds []int32, fn func(w *mmWorker, lo, hi int32)) {
	onePass(bounds, fn, noOutput)
}

// onePass runs the plan described at the top of this file. fill computes
// the columns [lo, hi) of one range, appending them to w.rows/w.vals, which
// arrive empty. Unless out is noOutput the pass returns the output's entry
// arrays, the ranges' chunks back to back in range order: a copy of the chunk
// when one range ran, an allocation the ranges place their chunks into when
// several did — or, under lentOutput with one range, the chunk itself and
// the loan that returns it.
func onePass(bounds []int32, fill func(w *mmWorker, lo, hi int32), out passOutput) (ir []int32, num []float64, loan Loan) {
	last := len(bounds) - 2
	for last >= 0 && bounds[last] == bounds[last+1] {
		last--
	}
	if last < 0 {
		return []int32{}, []float64{}, Loan{}
	}
	ws := make([]*mmWorker, last+1)
	offs := make([]int, last+1)
	run := func(t int) {
		w := ws[t]
		w.rows, w.vals = w.rows[:0], w.vals[:0]
		fill(w, bounds[t], bounds[t+1])
	}
	place := func(t int) {
		copy(ir[offs[t]:], ws[t].rows)
		copy(num[offs[t]:], ws[t].vals)
	}

	// Spawned ranges wait on allocated between filling and placing; it is
	// closed once ir, num and offs are set.
	allocated := make(chan struct{})
	var filled, placed sync.WaitGroup
	spawned := 0
	for t := 0; t < last; t++ {
		if bounds[t] == bounds[t+1] {
			continue
		}
		ws[t] = getWorker()
		spawned++
		filled.Add(1)
		placed.Add(1)
		go func(t int) {
			defer placed.Done()
			run(t)
			filled.Done()
			if out != noOutput {
				<-allocated
				place(t)
			}
		}(t)
	}
	w := getWorker()
	ws[last] = w
	run(last)
	filled.Wait()
	switch {
	case out == noOutput:
	case spawned == 0 && out == lentOutput && len(w.rows) > 0:
		loan = Loan{chunk{w.rows, w.vals}}
		ir, num = slices.Clip(w.rows), slices.Clip(w.vals)
		w.rows, w.vals = nil, nil
	case spawned == 0:
		ir, num = slices.Clip(append([]int32{}, w.rows...)), slices.Clip(append([]float64{}, w.vals...))
	default:
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
	return ir, num, loan
}
