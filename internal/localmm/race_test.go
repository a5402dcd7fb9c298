package localmm

import (
	"sync"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// TestParallelKernelsRace drives every parallel kernel and merge at high
// thread counts, including several ParallelSpGEMM calls racing each other the
// way concurrent SUMMA ranks do, so `go test -race ./internal/localmm`
// exercises the worker pool, the shared output arrays, and the read-only
// operand sharing. Guarded by -short so the default suite stays fast.
func TestParallelKernelsRace(t *testing.T) {
	if testing.Short() {
		t.Skip("race workout skipped in -short mode")
	}
	sr := semiring.PlusTimes()
	a := randomMat(t, 300, 300, 4000, 31)
	b := randomMat(t, 300, 300, 4000, 32)
	want := Multiply(a, b, sr)

	for _, k := range allKernels {
		got := spgemmTest(k, a, b, sr, 8)
		if !spmat.Equal(got, want) {
			t.Errorf("kernel %v: wrong parallel product", k)
		}
	}

	mats := []*spmat.CSC{
		ParallelSpGEMM(KernelHashUnsorted, a, b, sr, 1),
		ParallelSpGEMM(KernelHashUnsorted, b, a, sr, 1),
		ParallelSpGEMM(KernelHashUnsorted, a, a, sr, 1),
	}
	for _, mg := range allMergers {
		if got := ParallelMerge(mg, mats, sr, true, 8); got.NNZ() == 0 {
			t.Errorf("merge %v: empty parallel merge", mg)
		}
	}

	// Concurrent multiplies over the same operands: ranks inside one
	// simulated MPI job share nothing but read-only inputs and the pooled
	// worker state.
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := ParallelSpGEMM(KernelHashUnsorted, a, b, sr, 4)
			if !spmat.Equal(got, want) {
				t.Error("concurrent parallel multiply diverged")
			}
		}()
	}
	wg.Wait()
}

// TestDCSCParallelKernelsRace is the doubly-compressed counterpart of
// TestParallelKernelsRace: the one-pass kernels and merges at high thread
// counts over hypersparse DCSC operands (shared read-only views, free-listed
// workers, chunks copied into disjoint ranges of the shared output), plus
// concurrent
// multiplies the way SUMMA ranks race. Run under `go test -race`.
func TestDCSCParallelKernelsRace(t *testing.T) {
	if testing.Short() {
		t.Skip("race workout skipped in -short mode")
	}
	sr := semiring.PlusTimes()
	ac := hyperMat(t, 200, 4096, 3000, 61)
	bc := hyperMat(t, 4096, 4096, 3000, 62)
	a, b := ac.ToDCSC(), bc.ToDCSC()
	want := Multiply(ac, bc, sr)

	for _, k := range allKernels {
		got := mulTest(k, a, b, sr, 8)
		if !spmat.Equal(got.ToCSC(), want) {
			t.Errorf("kernel %v: wrong DCSC parallel product", k)
		}
	}

	b2 := hyperMat(t, 4096, 4096, 2500, 63).ToDCSC()
	mats := []spmat.Matrix{
		MulMat(KernelHashUnsorted, a, b, sr, 8),
		MulMat(KernelHashUnsorted, a, b2, sr, 8),
	}
	for _, mg := range allMergers {
		if got := mergeTest(mg, mats, sr, true, 8); got.NNZ() == 0 {
			t.Errorf("merge %v: empty DCSC parallel merge", mg)
		}
	}

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := MulMat(KernelHashUnsorted, a, b, sr, 4)
			if !spmat.Equal(got.ToCSC(), want) {
				t.Error("concurrent DCSC parallel multiply diverged")
			}
			if SymbolicMat(a, b, 4) != want.NNZ() {
				t.Error("concurrent DCSC parallel symbolic diverged")
			}
		}()
	}
	wg.Wait()
}

// TestLoansRace lends, cuts views from and returns loans on several
// goroutines at once, the way ranks do, each goroutine also returning a stale
// copy of the loan it returned last while its next loan is out — a shell the
// free list may have handed to any of them. Under poisoned returns every lent
// product and view must read as the owned product until its own loan ends: a
// shell two live loans shared, or a stale copy that could end the shell's
// next loan, shows as a poisoned read. Run under `go test -race`.
func TestLoansRace(t *testing.T) {
	defer spmat.PoisonReleased.Store(spmat.PoisonReleased.Swap(true))
	sr := semiring.PlusTimes()
	a := uniformMat(t, 200, 200, 6, 71)
	bounds := []int32{0, 100, 300}
	var plans []*Plan
	var owned []spmat.Matrix
	for r := range 4 {
		pl := PlanMul(a, asFormat(uniformMat(t, 200, 300, 3, int64(72+r)), r%2 == 1))
		out, _ := pl.Mul(KernelHashUnsorted, sr, false, 1)
		plans, owned = append(plans, pl), append(owned, out)
	}
	var wg sync.WaitGroup
	for r := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl, want := plans[r], owned[r].ToCSC()
			wantViews := spmat.MatColRanges(want, bounds)
			var stale Loan
			for range 100 {
				lent, loan := pl.Mul(KernelHashUnsorted, sr, true, 1)
				views := loan.ColRanges(lent, bounds)
				stale.Return()
				if !spmat.Equal(lent.ToCSC(), want) || !spmat.Equal(views[0].ToCSC(), wantViews[0].(*spmat.CSC)) || !spmat.Equal(views[1].ToCSC(), wantViews[1].(*spmat.CSC)) {
					t.Errorf("goroutine %d: a lent product or its views changed while its loan was out", r)
					loan.Return()
					return
				}
				stale = loan
				loan.Return()
			}
		}()
	}
	wg.Wait()
	for _, pl := range plans {
		pl.Release()
	}
}

// TestLoansAndDealsRace is the one free list's race workout: goroutines that
// lend kernel outputs — Plan.Mul and MulMerge, views cut from them — and
// return them run beside goroutines that deal grids on loan
// (spmat.LendGrid) and release them, all drawing from and giving back to
// spmat's free list at once, with every array poisoned as it goes back.
// Every lent product must read as its unlent twin, and every lent grid's
// blocks as the same grid dealt to keep (spmat.SplitGrid), until its own
// loan or release: an array two holders shared shows as a poisoned or
// foreign read. Run under `go test -race`.
func TestLoansAndDealsRace(t *testing.T) {
	defer spmat.PoisonReleased.Store(spmat.PoisonReleased.Swap(true))
	sr := semiring.PlusTimes()
	a := uniformMat(t, 200, 200, 6, 81)
	bounds := []int32{0, 100, 300}
	var wg sync.WaitGroup
	for r := range 2 {
		pl := PlanMul(a, asFormat(uniformMat(t, 200, 300, 3, int64(82+r)), r == 1))
		owned, _ := pl.Mul(KernelHashUnsorted, sr, false, 1)
		prev := []spmat.Matrix{owned, asFormat(uniformMat(t, 200, 300, 4, int64(84+r)), r == 1)}
		merged := MergeMat(MergerHash, prev, sr, false, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pl.Release()
			for range 60 {
				lent, loan := pl.Mul(KernelHashUnsorted, sr, true, 1)
				views := loan.ColRanges(lent, bounds)
				sum, sumLoan, _ := MulMerge(KernelHashUnsorted, prev, nil, 0, 0, sr, false, true, 1)
				ok := spmat.Equal(lent.ToCSC(), owned.ToCSC()) && spmat.Equal(sum.ToCSC(), merged.ToCSC())
				for x, v := range spmat.MatColRanges(owned, bounds) {
					ok = ok && spmat.Equal(views[x].ToCSC(), v.ToCSC())
				}
				loan.Return()
				sumLoan.Return()
				if !ok {
					t.Errorf("goroutine %d: a lent product, merge or view differs from its unlent twin", r)
					return
				}
			}
		}()
	}
	for g := range 2 {
		m := hyperMat(t, 512, 4096, 3000, int64(86+g))
		rowB, colB := spmat.PartBounds(m.Rows, 2), spmat.PartBounds(m.Cols, 4)
		f := []spmat.Format{spmat.FormatCSC, spmat.FormatDCSC}[g]
		want := spmat.SplitGrid(m, rowB, colB, f)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 60 {
				grid := spmat.LendGrid(m, rowB, colB, f)
				for x, b := range grid {
					if !spmat.Equal(b.ToCSC(), want[x].ToCSC()) {
						t.Errorf("deal %d: lent block %d differs from the block dealt to keep", g, x)
						spmat.ReleaseGrid(grid)
						return
					}
				}
				spmat.ReleaseGrid(grid)
			}
		}()
	}
	wg.Wait()
}
