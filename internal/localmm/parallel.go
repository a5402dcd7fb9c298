package localmm

import (
	"fmt"
	"sync"

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
//  3. the output is allocated once, at its exact size, from those counts; and
//  4. each worker's scratch lands with one copy at the offset of its range's
//     first column — ranges are contiguous, so placement is a memcpy.
//
// No column is hashed twice: the sizes the single allocation needs fall out
// of the accumulation itself, so the multiply and the merge carry no
// symbolic pass of their own (Alg 3's LOCALSYMBOLIC remains a separate entry
// point, SymbolicMat). The caller's goroutine executes one range itself, so
// one worker starts no goroutine at all; further ranges run on their own
// goroutines, which wait for the allocation and then place their chunk in
// parallel. The thread count a caller passes is the most workers it allows
// (in the distributed multiply: the cores its compute section holds); a call
// runs fewer when it has fewer column slots or too little work to pay for
// them (clampThreads).
//
// Every output column is computed by one worker in serial operand order and
// drained in hash-insertion order, so values and the entry order inside
// unsorted columns are bit-identical for every thread count.

// mmWorker is one range's reusable scratch: a hash accumulator for the hash
// kernels, a row set for the symbolic pass, a heap and column views for the
// heap kernels, per-operand column cursors for merges, the finished columns
// of the range, and the pair sorter's buffers. All of it is grown, never
// re-made, and kept across calls on a free list.
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
	rows   []int32
	vals   []float64
	sorter spmat.PairSorter
	_      [64]byte
}

// idleWorkers is the free list of worker scratch. It holds strong
// references on purpose: a distributed multiply makes thousands of small
// kernel calls between garbage collections, and scratch kept only in a
// sync.Pool is dropped by every collection and regrown from nothing.
var idleWorkers struct {
	sync.Mutex
	ws []*mmWorker
}

// The free list keeps at most maxIdleWorkers workers, and a worker keeps no
// table of more than maxKeptEntries entries — chunk, accumulator, row set,
// heap, column views: a burst of concurrent callers or one huge product pays
// for its scratch again next time instead of pinning it for the life of the
// process. (The direct tables are bounded by directTableBytes already.)
const (
	maxIdleWorkers = 64
	maxKeptEntries = 1 << 22
)

// getWorker takes scratch off the free list, most recently used first.
func getWorker() *mmWorker {
	idleWorkers.Lock()
	defer idleWorkers.Unlock()
	if n := len(idleWorkers.ws); n > 0 {
		w := idleWorkers.ws[n-1]
		idleWorkers.ws = idleWorkers.ws[:n-1]
		return w
	}
	return new(mmWorker)
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
	if cap(w.acc.rows) > maxKeptEntries {
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
// Xeon, one worker → two, re-taken with the direct regime's jump-free insert
// (ISSUE 23; these columns almost never hit a present row, so a worker's work
// costs what it did and the crossover is where the table this replaces had
// it), the run checked in as BENCH_kernels.json:
//
//	flops     CSC B (µs)       DCSC B (µs)
//	  4 k       36 →   54        29 →   38
//	  8 k       68 →  104        60 →   97
//	 16 k      152 →  157       118 →  176
//	 32 k      313 →  283       258 →  337
//	 64 k      523 →  456       510 →  416
//	128 k      969 →  953       916 →  713
//	256 k     2170 → 1716      1907 → 1319
//
// A second worker loses 30–60 % up to 8 k, is level or loses 50 % at 16 k,
// wins one column and loses the other at 32 k and wins 13–18 % at 64 k; above
// that it wins by up to 31 % or is level with a neighbour's load on the
// second core. That loop is hot, which flatters the wake-up; a stage of the
// distributed multiply finds its second core cold. Hence 64 k: the smallest
// size at which the worker is no longer a loss. (The stages of bench/'s
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

// runWorkers executes fn once per non-empty column range, each with its own
// scratch: the last range on the caller's goroutine, the others on theirs.
func runWorkers(bounds []int32, fn func(w *mmWorker, lo, hi int32)) {
	onePass(bounds, fn, nil)
}

// onePass runs the plan described at the top of this file. fill computes
// the columns [lo, hi) of one range, appending them to w.rows/w.vals, which
// arrive empty; alloc is called once every range is filled and returns the
// exactly-sized entry arrays of the output, into which the ranges' chunks
// are copied back to back in range order. A nil alloc ends the pass after
// the fill (the symbolic and dense kernels produce no entry chunks).
func onePass(bounds []int32, fill func(w *mmWorker, lo, hi int32), alloc func() ([]int32, []float64)) {
	last := len(bounds) - 2
	for last >= 0 && bounds[last] == bounds[last+1] {
		last--
	}
	if last < 0 {
		if alloc != nil {
			alloc()
		}
		return
	}
	ws := make([]*mmWorker, last+1)
	offs := make([]int, last+1)
	var ir []int32
	var num []float64
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
	for t := 0; t < last; t++ {
		if bounds[t] == bounds[t+1] {
			continue
		}
		ws[t] = getWorker()
		filled.Add(1)
		placed.Add(1)
		go func(t int) {
			defer placed.Done()
			run(t)
			filled.Done()
			if alloc != nil {
				<-allocated
				place(t)
			}
		}(t)
	}
	ws[last] = getWorker()
	run(last)
	filled.Wait()
	if alloc != nil {
		ir, num = alloc()
		total := 0
		for t, w := range ws {
			if w != nil {
				offs[t] = total
				total += len(w.rows)
			}
		}
		if total != len(ir) || total != len(num) {
			panic(fmt.Sprintf("localmm: accumulated %d entries, output sized for %d", total, len(ir)))
		}
		close(allocated)
		place(last)
	}
	placed.Wait()
	for _, w := range ws {
		if w != nil {
			putWorker(w)
		}
	}
}

// prefixToColPtr converts per-column counts into a ColPtr prefix sum,
// returning the total.
func prefixToColPtr(counts []int64, colPtr []int64) int64 {
	var acc int64
	for j, c := range counts {
		colPtr[j] = acc
		acc += c
	}
	colPtr[len(counts)] = acc
	return acc
}
