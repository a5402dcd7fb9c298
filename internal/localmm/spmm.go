package localmm

import (
	"fmt"

	"repro/internal/spmat"
)

// This file holds the local sparse×dense kernel of the SpMM engine: C = A·B
// with A sparse and B a row-major dense panel. It shares the SpGEMM kernels'
// worker pool (parallel.go) but needs none of their accumulate-then-place
// machinery: a dense output's shape *is* its size, so the output exists
// before any value is computed and workers write disjoint ranges of it in
// place.
//
// SpMM is format-generic over the A operand through spmat.Matrix: stored
// columns are visited in ascending order whatever the storage, so CSC and
// DCSC blocks produce bit-identical values. Workers partition the *dense*
// column dimension — every dense column costs exactly nnz(A) multiplies, so
// an even split is a perfect flop balance, and each worker owns a disjoint
// stripe of every output row (no locks, no post-hoc merge).
//
// The dense kernels assume the plus-times ring: a dense accumulator starts
// at 0, which is only the additive identity there. The distributed dense
// schedules reject other semirings before they reach this layer.

// SpMMFlops returns the multiply count of A·B with a dCols-wide dense B:
// every stored entry of A touches one dense row of that width.
func SpMMFlops(a spmat.Matrix, dCols int32) int64 { return a.NNZ() * int64(dCols) }

// checkSpMMShapes panics on inner-dimension mismatch.
func checkSpMMShapes(a spmat.Matrix, b *spmat.DenseMat) {
	_, ac := a.Dims()
	if ac != b.Rows {
		panic(fmt.Sprintf("localmm: SpMM inner dimension mismatch: A is %v, B is %v", a, b))
	}
}

// SpMMInto accumulates A·B into c (which must be aRows×bCols). The 1.5D
// schedules call it once per ring round, folding each shifted operand block
// into the same resident accumulator. Entries accumulate in ascending stored
// A-column order, then entry order within a column — identical for every
// thread count and storage format.
func SpMMInto(c *spmat.DenseMat, a spmat.Matrix, b *spmat.DenseMat, threads int) {
	checkSpMMShapes(a, b)
	rows, _ := a.Dims()
	if c.Rows != rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("localmm: SpMMInto accumulator is %v, want %dx%d", c, rows, b.Cols))
	}
	d := b.Cols
	threads = clampThreads(threads, d, SpMMFlops(a, d))
	if threads <= 1 || d < 2 {
		spmmRange(c, a, b, 0, d)
		return
	}
	// Phase 1 is the allocation the caller already did; the flop balance over
	// dense columns is uniform (each costs nnz(A)), so an even split is exact.
	bounds := spmat.PartBounds(d, threads)
	runWorkers(bounds, func(_ *mmWorker, lo, hi int32) {
		spmmRange(c, a, b, lo, hi)
	})
}

// spmmRange accumulates A·B into dense columns [lo, hi) of c: the shared
// inner loop of the serial and parallel paths. For every stored entry
// A(i, k) it adds A(i,k)·B(k, lo:hi) into C(i, lo:hi) — one contiguous
// row-slice multiply-add, which is why the dense panels are row-major.
func spmmRange(c *spmat.DenseMat, a spmat.Matrix, b *spmat.DenseMat, lo, hi int32) {
	a.EnumCols(func(k int32, rows []int32, vals []float64) {
		brow := b.RowSlice(k)[lo:hi]
		for e, i := range rows {
			v := vals[e]
			crow := c.RowSlice(i)[lo:hi]
			for j, bv := range brow {
				crow[j] += v * bv
			}
		}
	})
}

// SpMMSerial is the naive serial dense reference the differential SpMM tests
// compare every distributed schedule against: one goroutine, ascending
// column order, full panel width.
func SpMMSerial(a spmat.Matrix, b *spmat.DenseMat) *spmat.DenseMat {
	checkSpMMShapes(a, b)
	rows, _ := a.Dims()
	c := spmat.NewDense(rows, b.Cols)
	spmmRange(c, a, b, 0, b.Cols)
	return c
}
