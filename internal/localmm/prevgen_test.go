package localmm

import (
	"slices"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// The previous generation of local kernels, which the paper's Table VII and
// Fig. 15 set the sort-free hash family against: the heap kernel and the
// k-way heap merge of Azad et al. [13], which keep every intermediate
// sorted, and the hybrid heap/hash kernel of Nagasaka et al. [25]. The
// engine runs none of them. They live here as comparators: the
// differentials hold the engine's kernels and merge to them bit for bit —
// the heap paths share no accumulator code with the hash paths, so each is
// an oracle for the other — and BenchmarkKernelCrossover and
// BenchmarkMergeSortedOutput (make bench-kernels) measure what the engine
// gave up. They run on the engine's one-pass plan, over any format and
// thread count, and their outputs are always sorted.

// testKernel names a local multiply the tests compare: the engine's two
// Kernels, under their own values, and the previous generation's two.
type testKernel int

const (
	// kernelHeap is the heap-based column kernel of the previous 3D SUMMA
	// work [13]. It needs sorted A columns — an unsorted A is sorted on a
	// copy and that cost is charged to the kernel, as in the original code —
	// and its output is sorted.
	kernelHeap testKernel = testKernel(KernelHashSorted) + 1 + iota
	// kernelHybrid is the previous state-of-the-art hybrid kernel [25]: per
	// output column the heap for small flop counts (hybridHeapThreshold),
	// else a hash table; output sorted. Sec. IV-D measures unsorted-hash
	// 30–50% faster.
	kernelHybrid
)

// hybridHeapThreshold is the per-column flop count below which the hybrid
// kernel prefers the heap: for short columns (low compression ratio) the heap
// beats hash-table setup, mirroring the policy of Nagasaka et al. [25].
const hybridHeapThreshold = 64

// allKernels is every local multiply the differentials hold to one product.
var allKernels = []testKernel{testKernel(KernelHashUnsorted), testKernel(KernelHashSorted), kernelHeap, kernelHybrid}

// engineKernels is the kernels the engine runs.
var engineKernels = []Kernel{KernelHashUnsorted, KernelHashSorted}

// String names the kernel as reports and BENCH_kernels.json do.
func (k testKernel) String() string {
	switch k {
	case kernelHeap:
		return "heap"
	case kernelHybrid:
		return "hybrid"
	default:
		return Kernel(k).String()
	}
}

// heapMerges reports whether the kernel computes an output column of the
// given flop count with the heap: always for the heap kernel, up to
// hybridHeapThreshold flops for the hybrid one, never for the hash kernels.
func (k testKernel) heapMerges(flops int64) bool {
	return k == kernelHeap || k == kernelHybrid && flops <= hybridHeapThreshold
}

// mulTest is MulMat for any of the tests' kernels.
func mulTest(k testKernel, a, b spmat.Matrix, sr *semiring.Semiring, threads int) spmat.Matrix {
	pl := PlanMul(a, b)
	defer pl.Release()
	return pl.mulTest(k, sr, clampThreads(threads, pl.bv.n, pl.Flops))
}

// spgemmTest is mulTest over CSC operands, ParallelSpGEMM's counterpart.
func spgemmTest(k testKernel, a, b *spmat.CSC, sr *semiring.Semiring, threads int) *spmat.CSC {
	return mulTest(k, a, b, sr, threads).(*spmat.CSC)
}

// mulTest runs kernel k on the planned pair over exactly workers ranges of
// B's slots: an engine kernel through Plan.multiply, a previous-generation
// one by the same one-pass plan — per column the heap over the columns of a
// sorted A, or for the hybrid's long columns the hash table drained
// ascending.
func (pl *Plan) mulTest(k testKernel, sr *semiring.Semiring, workers int) spmat.Matrix {
	if k < kernelHeap {
		return pl.multiply(Kernel(k), sr, workers, ownedOutput)
	}
	av, bv, colFlops := pl.sortedView(), &pl.bv, pl.colFlops
	aRows, _ := pl.a.Dims()
	_, bCols := pl.b.Dims()
	ptr := make([]int64, bv.n+1)
	plusTimes := sr.IsPlusTimes()
	ir, num := onePass(flopBounds(colFlops, workers), colFlops, aRows, func(w *mmWorker, lo, hi int32) {
		var h rowHeap
		for p := lo; p < hi; p++ {
			if colFlops[p] == 0 {
				continue
			}
			start := len(w.rows)
			if k.heapMerges(colFlops[p]) {
				w.heapMulColumn(&h, av, pl.aSlots(p), pl.bVals(p), sr, plusTimes)
			} else {
				w.acc.sizeFor(colFlops[p], aRows)
				hashAccumulateColumn(&w.acc, av, pl.aSlots(p), pl.bVals(p), sr, plusTimes)
				w.drain(true)
			}
			ptr[p+1] = int64(len(w.rows) - start)
		}
	}, ownedOutput)
	return newOutput(aRows, bCols, slices.Clone(bv.jc), bv.compressed, ptr, ir, num, true, ownedOutput)
}

// sortedView returns the view of A the heap-based kernels read: A's own or,
// when A is unsorted, a sorted copy — made once per call and shared
// read-only by all its workers. Sorting moves entries inside columns only,
// so the plan's slots hold for the copy.
func (pl *Plan) sortedView() *colView {
	if pl.a.Sorted() {
		return &pl.av
	}
	a := pl.a.CloneMat()
	a.SortColumns()
	sorted := viewOf(a)
	return &sorted
}

// testMerger names a merge the tests compare: the engine's hash merge and
// the previous generation's heap merge.
type testMerger int

const (
	mergerHash testMerger = iota
	// mergerHeap is the k-way heap merge of the previous 2D/3D SUMMA
	// implementations [30, 13]: unsorted inputs are sorted first, that cost
	// charged to the merge, and the output is always sorted.
	mergerHeap
)

// allMergers is every merge the differentials hold to one sum.
var allMergers = []testMerger{mergerHash, mergerHeap}

// String names the merge as reports and BENCH_kernels.json do.
func (mg testMerger) String() string {
	if mg == mergerHeap {
		return "heap-merge"
	}
	return MergerHash.String()
}

// mergeTest is MergeMat for either of the tests' merges. sortOutput only
// affects the hash merge; the heap merge always emits sorted columns.
func mergeTest(mg testMerger, mats []spmat.Matrix, sr *semiring.Semiring, sortOutput bool, threads int) spmat.Matrix {
	if mg == mergerHash {
		return MergeMat(MergerHash, mats, sr, sortOutput, threads)
	}
	return heapMerge(mats, sr, threads)
}

// heapMerge is the k-way heap merge on the engine's one-pass plan, with at
// most threads workers over ranges balanced by input entries. It needs
// sorted operands — unsorted ones are sorted on copies — and merges even a
// single operand.
func heapMerge(mats []spmat.Matrix, sr *semiring.Semiring, threads int) spmat.Matrix {
	rows, cols := checkMergeShapes(mats)
	views := make([]colView, len(mats))
	var entries int64
	for i, m := range sortedOperands(mats) {
		views[i] = viewOf(m)
		entries += m.NNZ()
	}
	slots, colIn := mergeSlots(views, cols, nil, nil)
	ptr := make([]int64, slots.n+1)
	plusTimes := sr.IsPlusTimes()
	ir, num := onePass(flopBounds(colIn, clampThreads(threads, slots.n, entries)), colIn, rows, func(w *mmWorker, lo, hi int32) {
		var h rowHeap
		w.seek(views, slots.index(lo))
		for p := lo; p < hi; p++ {
			if colIn[p] == 0 {
				continue
			}
			start := len(w.rows)
			w.heapColumn(&h, w.gather(views, slots.index(p)), nil, sr, plusTimes)
			ptr[p+1] = int64(len(w.rows) - start)
		}
	}, ownedOutput)
	return newOutput(rows, cols, slots.jc, slots.compressed, ptr, ir, num, true, ownedOutput)
}

// sortedOperands returns mats with every unsorted operand replaced by a
// sorted copy: the heap merge's inputs.
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

// heapEntry tracks one contributing list during a multiway merge (a column
// of A in a multiply, an operand's column in a merge): the current row
// index, which list it is, and the position inside that list.
type heapEntry struct {
	row  int32
	list int32
	ptr  int64
}

// rowHeap is a binary min-heap on (row, list). A hand-rolled heap avoids the
// interface indirection of container/heap in this hot loop. The list
// tie-break makes same-row contributions pop in operand order — exactly the
// order the hash accumulator adds them — so heap- and hash-based paths
// produce bit-identical float64 values, not merely equal structure, and the
// differential suites hold them to exact equality.
type rowHeap []heapEntry

// heapLess orders entries by row, ties by list (operand) index.
func heapLess(a, b heapEntry) bool {
	if a.row != b.row {
		return a.row < b.row
	}
	return a.list < b.list
}

func (h *rowHeap) push(e heapEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *rowHeap) pop() heapEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && heapLess(old[l], old[small]) {
			small = l
		}
		if r < n && heapLess(old[r], old[small]) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// heapMulColumn computes one output column with the multiway heap merge
// (ascending rows), appending it to w.rows/w.vals. The views of the A
// columns the B entries select (aSlots, as hashAccumulateColumn takes them;
// an empty list where A stores no such column, so list i stays scaled by
// bVals[i]) are fetched once into the worker's scratch and merged scaled by
// those entries — no per-column allocation.
func (w *mmWorker) heapMulColumn(h *rowHeap, a *colView, aSlots []int32, bVals []float64, sr *semiring.Semiring, plusTimes bool) {
	parts := w.parts[:0]
	for _, k := range aSlots {
		var part colPart
		if k >= 0 {
			part.rows, part.vals = a.col(k)
		}
		parts = append(parts, part)
	}
	w.parts = parts
	w.heapColumn(h, parts, bVals, sr, plusTimes)
}

// heapColumn k-way-merges the (sorted) lists of one column in the heap h,
// appending the merged column to w.rows/w.vals: the operands' contributions
// of a merge (scale nil), or the A columns of a multiply, list i scaled by
// scale[i].
func (w *mmWorker) heapColumn(h *rowHeap, parts []colPart, scale []float64, sr *semiring.Semiring, plusTimes bool) {
	*h = (*h)[:0]
	for li := range parts {
		if len(parts[li].rows) > 0 {
			h.push(heapEntry{row: parts[li].rows[0], list: int32(li), ptr: 0})
		}
	}
	for len(*h) > 0 {
		e := h.pop()
		row := e.row
		var acc float64
		first := true
		for {
			part := parts[e.list]
			v := part.vals[e.ptr]
			if scale != nil && plusTimes {
				v *= scale[e.list]
			} else if scale != nil {
				v = sr.Mul(v, scale[e.list])
			}
			if first {
				acc, first = v, false
			} else if plusTimes {
				acc += v
			} else {
				acc = sr.Add(acc, v)
			}
			if next := e.ptr + 1; next < int64(len(part.rows)) {
				h.push(heapEntry{row: part.rows[next], list: e.list, ptr: next})
			}
			if len(*h) == 0 || (*h)[0].row != row {
				break
			}
			e = h.pop()
		}
		w.rows = append(w.rows, row)
		w.vals = append(w.vals, acc)
	}
}
