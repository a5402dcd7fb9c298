package localmm

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// refEntry is one stored entry of a reference column.
type refEntry struct {
	row int32
	val float64
}

// refColumns is a reference result: for every non-empty column, its entries
// in first-touch order — the order in which a Gustavson sweep (B entries in
// stored order, then A entries in stored order; operands in list order for
// a merge) first reaches each row. That is the order the hash kernels are
// documented to drain in, derived here without any kernel code.
type refColumns map[int32][]refEntry

// refAccumulator is the dense-accumulator core of both references: it feeds
// one column's contributions through a dense value array plus an occupied
// list, and returns the column in first-touch order.
type refAccumulator struct {
	val     []float64
	present []bool
	touched []int32
}

func newRefAccumulator(rows int32) *refAccumulator {
	return &refAccumulator{val: make([]float64, rows), present: make([]bool, rows)}
}

func (r *refAccumulator) add(row int32, v float64) {
	if !r.present[row] {
		r.present[row] = true
		r.val[row] = 0
		r.touched = append(r.touched, row)
	}
	r.val[row] += v
}

func (r *refAccumulator) flush() []refEntry {
	var col []refEntry
	for _, row := range r.touched {
		col = append(col, refEntry{row, r.val[row]})
		r.present[row] = false
	}
	r.touched = r.touched[:0]
	return col
}

// refMultiply is Gustavson's column SpGEMM with a dense accumulator. It
// shares no code with the kernels; operands are integer-valued, so the sums
// are exact whatever the order.
func refMultiply(a, b *spmat.CSC) refColumns {
	out := refColumns{}
	acc := newRefAccumulator(a.Rows)
	for j := int32(0); j < b.Cols; j++ {
		for p := b.ColPtr[j]; p < b.ColPtr[j+1]; p++ {
			i := b.RowIdx[p]
			for q := a.ColPtr[i]; q < a.ColPtr[i+1]; q++ {
				acc.add(a.RowIdx[q], a.Val[q]*b.Val[p])
			}
		}
		if col := acc.flush(); col != nil {
			out[j] = col
		}
	}
	return out
}

// refMerge is the entry-wise sum with the same dense accumulator.
func refMerge(mats []*spmat.CSC) refColumns {
	out := refColumns{}
	acc := newRefAccumulator(mats[0].Rows)
	for j := int32(0); j < mats[0].Cols; j++ {
		for _, m := range mats {
			for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
				acc.add(m.RowIdx[p], m.Val[p])
			}
		}
		if col := acc.flush(); col != nil {
			out[j] = col
		}
	}
	return out
}

// sortedRef returns the reference with every column in ascending row order.
func sortedRef(ref refColumns) refColumns {
	out := refColumns{}
	for j, col := range ref {
		c := append([]refEntry(nil), col...)
		sort.Slice(c, func(x, y int) bool { return c[x].row < c[y].row })
		out[j] = c
	}
	return out
}

// checkAgainstRef fails unless got stores exactly the reference's columns,
// entry for entry and in the reference's order.
func checkAgainstRef(t *testing.T, label string, got spmat.Matrix, want refColumns) {
	t.Helper()
	seen := 0
	got.EnumCols(func(j int32, rows []int32, vals []float64) {
		seen++
		col := want[j]
		if len(col) != len(rows) {
			t.Fatalf("%s: column %d has %d entries, want %d", label, j, len(rows), len(col))
		}
		for p := range rows {
			if rows[p] != col[p].row || vals[p] != col[p].val {
				t.Fatalf("%s: column %d entry %d is (%d, %v), want (%d, %v)",
					label, j, p, rows[p], vals[p], col[p].row, col[p].val)
			}
		}
	})
	if seen != len(want) {
		t.Fatalf("%s: %d stored columns, want %d", label, seen, len(want))
	}
}

// sameEntries fails unless a and b store identical columns in identical
// entry order.
func sameEntries(t *testing.T, label string, a, b spmat.Matrix) {
	t.Helper()
	want := refColumns{}
	b.EnumCols(func(j int32, rows []int32, vals []float64) {
		for p := range rows {
			want[j] = append(want[j], refEntry{rows[p], vals[p]})
		}
	})
	checkAgainstRef(t, label, a, want)
}

// TestOnePassMultiplyAgainstDenseReference is the independent oracle of the
// one-pass plan: every kernel × operand format pair × thread count must
// reproduce the dense-accumulator reference exactly, and the unsorted hash
// kernel must also reproduce its entry order — the reference's first-touch
// order, which is the serial kernel's too. Shapes include hypersparse blocks
// (most columns empty), fewer stored columns than threads, heavy columns
// that cross the hybrid threshold, unsorted operands, and an all-empty
// operand on either side.
func TestOnePassMultiplyAgainstDenseReference(t *testing.T) {
	sr := semiring.PlusTimes()
	shapes := []struct {
		name string
		a, b *spmat.CSC
	}{
		{"hypersparse", hyperMat(t, 40, 300, 120, 201), hyperMat(t, 300, 500, 90, 202)},
		{"three-columns", hyperMat(t, 30, 30, 200, 203), hyperMat(t, 30, 4000, 3, 204)},
		{"dense-columns", hyperMat(t, 64, 64, 1500, 205), hyperMat(t, 64, 48, 1200, 206)},
		{"unsorted", scrambleColumns(hyperMat(t, 50, 50, 600, 207), 1), scrambleColumns(hyperMat(t, 50, 70, 500, 208), 2)},
		{"empty-A", spmat.New(20, 30), hyperMat(t, 30, 40, 50, 209)},
		{"empty-B", hyperMat(t, 20, 30, 50, 210), spmat.New(30, 40)},
	}
	for _, sh := range shapes {
		ref := refMultiply(sh.a, sh.b)
		refSorted := sortedRef(ref)
		serial := ParallelSpGEMM(KernelHashUnsorted, sh.a, sh.b, sr, 1)
		for _, k := range allKernels {
			for _, aD := range []bool{false, true} {
				for _, bD := range []bool{false, true} {
					for _, threads := range []int{1, 2, 3, 7} {
						label := fmt.Sprintf("%s/%v/aDCSC=%v/bDCSC=%v/t=%d", sh.name, k, aD, bD, threads)
						got := mulTest(k, asFormat(sh.a, aD), asFormat(sh.b, bD), sr, threads)
						if want := asFormat(sh.b, bD).Format(); got.Format() != want {
							t.Fatalf("%s: output format %v, want B's %v", label, got.Format(), want)
						}
						if k == testKernel(KernelHashUnsorted) {
							checkAgainstRef(t, label, got, ref)
							sameEntries(t, label+" vs serial", got, serial)
						} else {
							if !got.Sorted() {
								t.Fatalf("%s: output not marked sorted", label)
							}
							checkAgainstRef(t, label, got, refSorted)
						}
					}
				}
			}
		}
	}
}

// TestOnePassMergeAgainstDenseReference is the merge half: both merges ×
// {all-CSC, all-DCSC, mixed} × thread count × sorted/unsorted output against
// the dense-accumulator sum, with the unsorted hash merge held to first-touch
// entry order and to the serial merge's. Operand sets include hypersparse
// ones, more threads than stored columns, an all-empty operand among full
// ones, only empty operands, and a single operand.
func TestOnePassMergeAgainstDenseReference(t *testing.T) {
	sr := semiring.PlusTimes()
	sets := []struct {
		name string
		mats []*spmat.CSC
	}{
		{"hypersparse", []*spmat.CSC{hyperMat(t, 25, 700, 160, 211), hyperMat(t, 25, 700, 150, 212), hyperMat(t, 25, 700, 12, 213)}},
		{"two-columns", []*spmat.CSC{hyperMat(t, 40, 5000, 2, 214), hyperMat(t, 40, 5000, 2, 215)}},
		{"dense-columns", []*spmat.CSC{hyperMat(t, 64, 32, 900, 216), hyperMat(t, 64, 32, 900, 217), hyperMat(t, 64, 32, 900, 218), hyperMat(t, 64, 32, 900, 219)}},
		{"unsorted", []*spmat.CSC{scrambleColumns(hyperMat(t, 30, 60, 400, 220), 3), scrambleColumns(hyperMat(t, 30, 60, 400, 221), 4)}},
		{"one-empty", []*spmat.CSC{hyperMat(t, 30, 60, 200, 222), spmat.New(30, 60), hyperMat(t, 30, 60, 200, 223)}},
		{"all-empty", []*spmat.CSC{spmat.New(10, 20), spmat.New(10, 20)}},
		{"single", []*spmat.CSC{scrambleColumns(hyperMat(t, 30, 200, 150, 224), 5)}},
	}
	for _, set := range sets {
		ref := refMerge(set.mats)
		refSorted := sortedRef(ref)
		serial := ParallelMerge(mergerHash, set.mats, sr, false, 1)
		for _, mg := range allMergers {
			for fi, dcsc := range [][]bool{{false, false, false, false}, {true, true, true, true}, {true, false, true, false}} {
				mats := make([]spmat.Matrix, len(set.mats))
				allDCSC := true
				for i, m := range set.mats {
					mats[i] = asFormat(m, dcsc[i])
					allDCSC = allDCSC && dcsc[i]
				}
				for _, sorted := range []bool{false, true} {
					for _, threads := range []int{1, 2, 3, 7} {
						label := fmt.Sprintf("%s/%v/formats=%d/sorted=%v/t=%d", set.name, mg, fi, sorted, threads)
						got := mergeTest(mg, mats, sr, sorted, threads)
						if wantD := allDCSC; (got.Format() == spmat.FormatDCSC) != wantD {
							t.Fatalf("%s: output format %v", label, got.Format())
						}
						if mg == mergerHash && !sorted {
							checkAgainstRef(t, label, got, ref)
							sameEntries(t, label+" vs serial", got, serial)
						} else {
							if !got.Sorted() {
								t.Fatalf("%s: output not marked sorted", label)
							}
							checkAgainstRef(t, label, got, refSorted)
						}
					}
				}
			}
		}
	}
}

// TestSteadyStateAllocations pins the scratch reuse of the one-pass plan:
// once the workers are warm, a multiply and a merge allocate the output's
// arrays and a fixed handful of per-call metadata objects — the same number
// for 64 columns as for 4096, so nothing is allocated per column, and no
// worker scratch (accumulator, chunk, sort keys) is re-made per call. With a
// DCSC A the plan holds an A slot and a running flop sum per B entry besides
// the per-slot counts; a multiply and a symbolic count over it must hold the
// same pin, and the multiply must allocate no more objects than over a CSC A,
// which it does only because those arrays go back to the free list with the
// plan (Plan.Release). So must the fused Merge-Layer (MulMerge), whose window
// counts and per-slot input entries live in the plans' arrays and whose
// planned columns are made in the worker's stage scratch: the pipelined
// shape (an earlier part and the last stage's plan) and the staged one at
// q = 2 and q = 4 (every stage planned, over the same blocks). A plan lives
// in its scratch on the free list (PlanMul), so a staged call allocates
// nothing per stage.
func TestSteadyStateAllocations(t *testing.T) {
	sr := semiring.PlusTimes()
	type counts struct{ mul, merge, mulDCSC, symDCSC, pipelined, staged2, staged4 float64 }
	perCall := func(cols int32) counts {
		a := hyperMat(t, 256, 256, 4000, 231)
		aD := a.ToDCSC()
		b := hyperMat(t, 256, cols, 8*int(cols), 232)
		parts := []spmat.Matrix{b, hyperMat(t, 256, cols, 8*int(cols), 233), b.ToDCSC()}
		plans := make([]*Plan, 4)
		staged := func(q int) func() {
			return func() {
				for i := range q {
					plans[i] = PlanMul(a, b)
				}
				MulMerge(KernelHashUnsorted, nil, plans[:q], 0, cols, sr, false, false, 1)
				for _, pl := range plans[:q] {
					pl.Release()
				}
			}
		}
		calls := []func(){
			func() { MulMat(KernelHashSorted, a, b, sr, 1) },
			func() { MergeMat(MergerHash, parts, sr, true, 1) },
			func() { MulMat(KernelHashSorted, aD, b, sr, 1) },
			func() { SymbolicMat(aD, b, 1) },
			func() {
				plans[0] = PlanMul(a, b)
				MulMerge(KernelHashUnsorted, parts[1:2], plans[:1], 0, cols, sr, false, false, 1)
				plans[0].Release()
			},
			staged(2),
			staged(4),
		}
		var n [7]float64
		for i, call := range calls {
			call()
			n[i] = testing.AllocsPerRun(10, call)
		}
		return counts{n[0], n[1], n[2], n[3], n[4], n[5], n[6]}
	}
	// Warm the scratch on the large shape first, so neither measurement
	// below sees it grow.
	perCall(4096)
	small, large := perCall(64), perCall(4096)
	t.Logf("objects per call: %+v", large)
	if small != large {
		t.Errorf("allocations depend on the column count: %+v at 64 columns, %+v at 4096", small, large)
	}
	const metadata = 20
	if max(large.mul, large.merge, large.mulDCSC, large.symDCSC, large.pipelined, large.staged2, large.staged4) > metadata {
		t.Errorf("steady-state calls allocate %+v objects, want at most %d", large, metadata)
	}
	if large.staged4 != large.staged2 {
		t.Errorf("a staged fused merge allocates %v objects at q = 4, %v at q = 2: something besides the plans is allocated per stage", large.staged4, large.staged2)
	}
	if large.mulDCSC != large.mul {
		t.Errorf("a multiply allocates %v objects with a DCSC A, %v with a CSC A: the plan's per-entry arrays are not recycled",
			large.mulDCSC, large.mul)
	}
}
