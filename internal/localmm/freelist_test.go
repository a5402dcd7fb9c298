//go:build !race

package localmm

import (
	"slices"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// TestFreeListDropsOversizedTables: the free list keeps no table above
// spmat.MaxKeptEntries, whichever of a worker's tables grew — the accumulator, the
// row set and the column scratch as much as the chunk. The symbolic count
// and the multiply of one column with more than maxKeptEntries/2 distinct
// rows need hash tables beyond the cap; afterwards every idle worker's
// scratch is back under it.
// The tables come to ~200 MB for a moment, which the race detector's shadow
// memory would multiply: the file is built without it.
func TestFreeListDropsOversizedTables(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates ~200 MB of tables")
	}
	const n = spmat.MaxKeptEntries/2 + 1
	a := &spmat.CSC{Rows: 2 * n, Cols: 1, ColPtr: []int64{0, n}, RowIdx: make([]int32, n), Val: make([]float64, n), SortedCols: true}
	for i := range a.RowIdx {
		a.RowIdx[i], a.Val[i] = int32(2*i), 1
	}
	b := spmat.Dense(1, 1, []float64{1})
	if tableCap(n, a.Rows) <= spmat.MaxKeptEntries {
		t.Fatalf("a column of %d rows fits a table of %d slots: not beyond the cap", n, tableCap(n, a.Rows))
	}
	if got := SymbolicSpGEMM(a, b); got != n {
		t.Fatalf("symbolic count %d, want %d", got, n)
	}
	if got := MulMat(KernelHashUnsorted, a, b, semiring.PlusTimes(), 1).NNZ(); got != n {
		t.Fatalf("product has %d nonzeros, want %d", got, n)
	}
	idleWorkers.Lock()
	defer idleWorkers.Unlock()
	for i, w := range idleWorkers.ws {
		for name, c := range map[string]int{
			"chunk rows": cap(w.rows), "chunk vals": cap(w.vals),
			"accumulator rows": cap(w.acc.rows), "accumulator vals": cap(w.acc.vals), "accumulator occupied": cap(w.acc.occupied),
			"row set": cap(w.set.rows), "row set occupied": cap(w.set.occupied), "stamps": cap(w.set.stamps),
			"parts": cap(w.parts), "stage rows": cap(w.stage.rows), "stage vals": cap(w.stage.vals),
		} {
			if c > spmat.MaxKeptEntries {
				t.Errorf("idle worker %d keeps %s of %d entries, above the cap of %d", i, name, c, spmat.MaxKeptEntries)
			}
		}
	}
}

// TestFreeListBoundsLoansAndDeals: lent outputs are out p·q at a time, not
// one a core, and a one-shot deal holds every block of both operands, so
// what comes back of both is bounded in bytes by spmat's one free list, all
// together. Twenty stage products of about 5 MB each are held lent at once —
// more than the bound between them — beside a lent grid, and all go back:
// the list must then hold no more than the bound, which its own test
// (spmat's TestFreeListKeepsOneBound) holds to what it counts, and no less
// than half of it — it kept what fitted, of outputs and deal alike. Each
// array a lent output held, entries and column pointers, is poisoned on the
// way, kept or not.
func TestFreeListBoundsLoansAndDeals(t *testing.T) {
	if testing.Short() {
		t.Skip("holds ~120 MB of stage products")
	}
	defer spmat.PoisonReleased.Store(spmat.PoisonReleased.Swap(true))
	const bound = 64 << 20
	sr := semiring.PlusTimes()
	a := uniformMat(t, 1024, 64, 512, 421)
	b := uniformMat(t, 64, 400, 8, 422)
	pl := PlanMul(a, b)
	defer pl.Release()
	var products []spmat.Matrix
	var lentBytes int64
	for range 20 {
		m := pl.Mul(KernelHashUnsorted, sr, true, 1)
		// A lent output's arrays are whole: its chunk and drawn pointers.
		v := viewOf(m)
		lentBytes += 4*int64(cap(v.rows)) + 8*int64(cap(v.vals)) + 8*int64(cap(v.ptr))
		products = append(products, m)
	}
	grid := spmat.LendGrid(uniformMat(t, 2048, 2048, 64, 423), spmat.PartBounds(2048, 4), spmat.PartBounds(2048, 4), spmat.FormatCSC)
	if lentBytes <= bound {
		t.Fatalf("the lent products hold %d bytes, not beyond the bound of %d", lentBytes, bound)
	}
	for _, m := range append(products, grid...) {
		spmat.Release(m)
	}
	held := spmat.IdleBytes()
	if held > bound {
		t.Errorf("the free list holds %d bytes, above the bound of %d", held, bound)
	}
	if held < bound/2 {
		t.Errorf("the free list holds %d bytes: it kept almost nothing of the %d returned", held, lentBytes)
	}
	for i, m := range products {
		if v := viewOf(m); slices.ContainsFunc(v.rows, func(r int32) bool { return r != -1 }) || !poisonedMetadata(m) {
			t.Fatalf("product %d's rows or column pointers are not poisoned after its release, kept by the list or not", i)
		}
	}
}
