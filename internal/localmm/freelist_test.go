//go:build !race

package localmm

import (
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// TestFreeListDropsOversizedTables: the free list keeps no table above
// maxKeptEntries, whichever of a worker's tables grew — the accumulator, the
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
	const n = maxKeptEntries/2 + 1
	a := &spmat.CSC{Rows: 2 * n, Cols: 1, ColPtr: []int64{0, n}, RowIdx: make([]int32, n), Val: make([]float64, n), SortedCols: true}
	for i := range a.RowIdx {
		a.RowIdx[i], a.Val[i] = int32(2*i), 1
	}
	b := spmat.Dense(1, 1, []float64{1})
	if tableCap(n, a.Rows) <= maxKeptEntries {
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
	for i, c := range idleWorkers.chunks {
		if max(cap(c.rows), cap(c.vals)) > maxKeptEntries {
			t.Errorf("idle chunk %d holds %d rows and %d values, above the cap of %d", i, cap(c.rows), cap(c.vals), maxKeptEntries)
		}
	}
	for i, w := range idleWorkers.ws {
		for name, c := range map[string]int{
			"chunk rows": cap(w.rows), "chunk vals": cap(w.vals),
			"accumulator rows": cap(w.acc.rows), "accumulator vals": cap(w.acc.vals), "accumulator occupied": cap(w.acc.occupied),
			"row set": cap(w.set.rows), "row set occupied": cap(w.set.occupied), "stamps": cap(w.set.stamps),
			"parts": cap(w.parts), "stage rows": cap(w.stage.rows), "stage vals": cap(w.stage.vals),
		} {
			if c > maxKeptEntries {
				t.Errorf("idle worker %d keeps %s of %d entries, above the cap of %d", i, name, c, maxKeptEntries)
			}
		}
	}
}

// TestFreeListBoundsChunkBytes: loans are out p·q at a time, not one a
// core, so what the free list keeps of them is bounded in bytes, chunks and
// the shells with their column metadata all together. Twenty stage products
// of about 5 MB each are held on loan at once — more than maxIdleChunkBytes
// between them — and returned; the list must then hold no more than the
// bound (and account for what it holds, chunks and shells alike), and the
// products' arrays it turned away must be nobody's but the collector's.
func TestFreeListBoundsChunkBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("holds ~120 MB of stage products")
	}
	sr := semiring.PlusTimes()
	a := uniformMat(t, 1024, 64, 512, 421)
	b := uniformMat(t, 64, 400, 8, 422)
	pl := PlanMul(a, b)
	var loans []Loan
	var lentBytes int64
	for range 20 {
		_, loan := pl.Mul(KernelHashUnsorted, sr, true, 1)
		if loan.s == nil || cap(loan.s.ptr) < 401 {
			t.Fatal("a single-range product's column pointers are not its loan's")
		}
		lentBytes += loan.chunkBytes() + loan.s.bytes()
		loans = append(loans, loan)
	}
	if lentBytes <= maxIdleChunkBytes {
		t.Fatalf("the loans hold %d bytes, not beyond the bound of %d", lentBytes, maxIdleChunkBytes)
	}
	for i := range loans {
		loans[i].Return()
	}
	idleWorkers.Lock()
	defer idleWorkers.Unlock()
	var held int64
	for _, c := range idleWorkers.chunks {
		held += c.bytes()
	}
	for _, s := range idleWorkers.shells {
		held += s.bytes()
	}
	if held != idleWorkers.loanBytes {
		t.Errorf("the list accounts for %d bytes of chunks and shells and holds %d", idleWorkers.loanBytes, held)
	}
	if held > maxIdleChunkBytes {
		t.Errorf("the list holds %d bytes of chunks and shells, above the bound of %d", held, maxIdleChunkBytes)
	}
	if held < maxIdleChunkBytes/2 {
		t.Errorf("the list holds %d bytes of chunks and shells: it kept almost nothing of %d returned", held, lentBytes)
	}
}
