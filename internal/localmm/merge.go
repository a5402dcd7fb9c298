package localmm

import (
	"repro/internal/semiring"
	"repro/internal/spmat"
)

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
