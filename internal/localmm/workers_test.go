package localmm

import (
	"fmt"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// TestClampThreads pins the three bounds on the worker count: the caller's
// ceiling, the column slots, and one extra worker per workPerExtraWorker of
// work.
func TestClampThreads(t *testing.T) {
	const w = workPerExtraWorker
	for _, tc := range []struct {
		threads int
		slots   int32
		work    int64
		want    int
	}{
		{1, 100, 10 * w, 1},   // the ceiling
		{0, 100, 10 * w, 1},   // never below one
		{8, 0, 0, 1},          // no slots, still one
		{8, 3, 10 * w, 3},     // one worker per slot at most
		{8, 100, w - 1, 1},    // too little work for a second worker
		{8, 100, w, 2},        // exactly enough for one
		{8, 100, 3*w - 1, 3},  // two extra
		{4, 100, 100 * w, 4},  // plenty of work: the ceiling again
		{2, 100, 9400, 1},     // a protein-batched stage
		{16, 1 << 20, 0, 1},   // empty product
		{16, 1 << 20, -1, 1},  // defensive: negative work
		{3, 100, 1 << 40, 3},  // work beyond int32
		{1 << 30, 5, 1e15, 5}, // absurd ceiling
	} {
		if got := clampThreads(tc.threads, tc.slots, tc.work); got != tc.want {
			t.Errorf("clampThreads(%d, %d, %d) = %d, want %d", tc.threads, tc.slots, tc.work, got, tc.want)
		}
	}
}

// TestMulOnExactWorkerCounts runs the multiply on exactly 2, 3 and 7 ranges
// (Plan.multiply) over shapes far below the worker floor, where Mul itself now
// runs one: hypersparse blocks, fewer stored columns than workers, heavy
// columns, unsorted and empty operands. The split must not show in the
// output — same columns, same entry order as the serial kernel.
func TestMulOnExactWorkerCounts(t *testing.T) {
	sr := semiring.PlusTimes()
	shapes := []struct {
		name string
		a, b *spmat.CSC
	}{
		{"hypersparse", hyperMat(t, 40, 300, 120, 241), hyperMat(t, 300, 500, 90, 242)},
		{"three-columns", hyperMat(t, 30, 30, 200, 243), hyperMat(t, 30, 4000, 3, 244)},
		{"dense-columns", hyperMat(t, 64, 64, 1500, 245), hyperMat(t, 64, 48, 1200, 246)},
		{"unsorted", scrambleColumns(hyperMat(t, 50, 50, 600, 247), 1), scrambleColumns(hyperMat(t, 50, 70, 500, 248), 2)},
		{"empty-A", spmat.New(20, 30), hyperMat(t, 30, 40, 50, 249)},
	}
	for _, sh := range shapes {
		for _, k := range allKernels {
			for _, bD := range []bool{false, true} {
				pl := PlanMul(sh.a, asFormat(sh.b, bD))
				if pl.Flops >= workPerExtraWorker {
					t.Fatalf("%s: %d flops is not below the floor", sh.name, pl.Flops)
				}
				want, _ := pl.multiply(k, sr, 1, ownedOutput)
				for _, workers := range []int{2, 3, 7} {
					label := fmt.Sprintf("%s/%v/bDCSC=%v/workers=%d", sh.name, k, bD, workers)
					got, _ := pl.multiply(k, sr, max(1, min(workers, int(pl.bv.n))), ownedOutput)
					if got.Format() != want.Format() || got.Sorted() != want.Sorted() {
						t.Fatalf("%s: output is %v sorted=%v, one worker gives %v sorted=%v", label, got.Format(), got.Sorted(), want.Format(), want.Sorted())
					}
					sameEntries(t, label, got, want)
				}
			}
		}
	}
}

// TestKernelsAboveWorkerFloor drives the public entry points with operands
// heavy enough that they really start the workers they are allowed — the
// small shapes of the other thread-count tests no longer do — for every
// kernel, merger and format pair, and holds the results to the one-thread
// run entry for entry. It runs under the race detector with the rest of the
// package.
func TestKernelsAboveWorkerFloor(t *testing.T) {
	sr := semiring.PlusTimes()
	a := uniformMat(t, 512, 512, 8, 251)
	b := uniformMat(t, 512, 3*workPerExtraWorker/64, 8, 252) // 64 flops per column
	parts := []*spmat.CSC{
		uniformMat(t, 1024, 2048, 3*workPerExtraWorker/(3*2048)+1, 253),
		scrambleColumns(uniformMat(t, 1024, 2048, 3*workPerExtraWorker/(3*2048)+1, 254), 6),
		uniformMat(t, 1024, 2048, 3*workPerExtraWorker/(3*2048)+1, 255),
	}
	for _, aD := range []bool{false, true} {
		for _, bD := range []bool{false, true} {
			am, bm := asFormat(a, aD), asFormat(b, bD)
			pl := PlanMul(am, bm)
			if got := clampThreads(4, pl.bv.n, pl.Flops); got != 4 {
				t.Fatalf("multiply of %d flops would run %d workers, want 4", pl.Flops, got)
			}
			wantNNZ := SymbolicMat(am, bm, 1)
			for _, k := range allKernels {
				want := MulMat(k, am, bm, sr, 1)
				for _, threads := range []int{2, 4} {
					label := fmt.Sprintf("mul/%v/aDCSC=%v/bDCSC=%v/t=%d", k, aD, bD, threads)
					sameEntries(t, label, MulMat(k, am, bm, sr, threads), want)
					if got := SymbolicMat(am, bm, threads); got != wantNNZ {
						t.Fatalf("%s: symbolic count %d, want %d", label, got, wantNNZ)
					}
				}
			}
		}
	}
	for fi, dcsc := range [][]bool{{false, false, false}, {true, true, true}, {true, false, true}} {
		mats := make([]spmat.Matrix, len(parts))
		var entries int64
		for i, m := range parts {
			mats[i] = asFormat(m, dcsc[i])
			entries += m.NNZ()
		}
		if got := clampThreads(4, 2048, entries); got != 4 {
			t.Fatalf("merge of %d entries would run %d workers, want 4", entries, got)
		}
		for _, mg := range []Merger{MergerHash, MergerHeap} {
			for _, sorted := range []bool{false, true} {
				want := MergeMat(mg, mats, sr, sorted, 1)
				for _, threads := range []int{2, 4} {
					label := fmt.Sprintf("merge/%v/formats=%d/sorted=%v/t=%d", mg, fi, sorted, threads)
					sameEntries(t, label, MergeMat(mg, mats, sr, sorted, threads), want)
				}
			}
		}
	}
}
