package localmm

import (
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// HashMerge adds a collection of same-shaped matrices entry-wise using a hash
// accumulator per column. It accepts unsorted inputs and produces unsorted
// output unless sortOutput is set (the final Merge-Fiber sorts; Merge-Layer
// does not). This is the paper's new "unsorted-hash-merge" (Sec. IV-D),
// reported an order of magnitude faster than heap merging.
func HashMerge(mats []*spmat.CSC, sr *semiring.Semiring, sortOutput bool) *spmat.CSC {
	return ParallelMerge(MergerHash, mats, sr, sortOutput, 1)
}

// HeapMerge adds a collection of same-shaped matrices entry-wise with a
// k-way heap merge per column, the merging algorithm of the previous 2D/3D
// SUMMA implementations [30, 13]. Inputs must be sorted; unsorted operands
// are sorted first and that cost is charged here, exactly the overhead the
// sort-free pipeline avoids. Output columns are sorted.
func HeapMerge(mats []*spmat.CSC, sr *semiring.Semiring) *spmat.CSC {
	return ParallelMerge(MergerHeap, mats, sr, true, 1)
}

// ParallelMerge is MergeMat over CSC operands: the selected merger with
// threads worker goroutines, CSC in and CSC out.
func ParallelMerge(mg Merger, mats []*spmat.CSC, sr *semiring.Semiring, sortOutput bool, threads int) *spmat.CSC {
	ms := make([]spmat.Matrix, len(mats))
	for i, m := range mats {
		ms[i] = m
	}
	return MergeMat(mg, ms, sr, sortOutput, threads).(*spmat.CSC)
}

// Note: a sorted input can still contain duplicate row indices within a
// column (e.g. the concatenated outputs of independent SUMMA stages). Both
// merge algorithms accumulate those duplicates, so their outputs are always
// duplicate-free.
