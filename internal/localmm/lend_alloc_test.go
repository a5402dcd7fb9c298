//go:build !race

package localmm

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// The race detector's allocator is not the one whose bytes this file counts.

// TestLentOutputAllocatesNothingByWidth: a warm lending call's output is made
// of arrays the free lists hold — the entries the worker's chunk, the column
// pointers and stored columns drawn from spmat's — so what a warm lent Plan.Mul or MulMerge
// (no plan, and fused with one) allocates does not grow with the output's
// width: the same bytes a call at 64 columns and at 4096, for CSC and DCSC
// operands alike. The owned call at 4096 columns must allocate at least its
// column pointers more, or the count would show nothing.
func TestLentOutputAllocatesNothingByWidth(t *testing.T) {
	sr := semiring.PlusTimes()
	a := uniformMat(t, 256, 256, 4, 431)
	perCall := func(cols int32, dcsc, lend bool, call string) int64 {
		b := asFormat(uniformMat(t, 256, cols, 2, 432), dcsc)
		prev := []spmat.Matrix{b, asFormat(uniformMat(t, 256, cols, 2, 433), dcsc)}
		pl := PlanMul(a, b)
		defer pl.Release()
		made := func() (out spmat.Matrix) {
			switch call {
			case "Plan.Mul":
				out = pl.Mul(KernelHashUnsorted, sr, lend, 1)
			case "MulMerge":
				out, _ = MulMerge(KernelHashUnsorted, prev, nil, 0, 0, sr, true, lend, 1)
			case "fused MulMerge":
				out, _ = MulMerge(KernelHashUnsorted, prev[1:], []*Plan{pl}, 0, cols, sr, false, lend, 1)
			}
			return out
		}
		if lend && !releaseLent(made()) {
			t.Fatalf("%s at %d columns (dcsc=%v) was not lent", call, cols, dcsc)
		}
		run := func() { spmat.Release(made()) }
		const runs = 50
		least := int64(-1)
		for range 3 {
			for range 5 {
				run()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				run()
			}
			runtime.ReadMemStats(&after)
			if n := int64(after.TotalAlloc-before.TotalAlloc) / runs; least < 0 || n < least {
				least = n
			}
		}
		return least
	}
	for _, call := range []string{"Plan.Mul", "MulMerge", "fused MulMerge"} {
		for _, dcsc := range []bool{false, true} {
			label := fmt.Sprintf("%s dcsc=%v", call, dcsc)
			narrow, wide := perCall(64, dcsc, true, call), perCall(4096, dcsc, true, call)
			owned := perCall(4096, dcsc, false, call)
			t.Logf("%s: lent %d bytes a call at 64 columns, %d at 4096; owned %d at 4096", label, narrow, wide, owned)
			if narrow != wide {
				t.Errorf("%s: a warm lent call allocates %d bytes at 64 columns and %d at 4096: its metadata is not the loan's", label, narrow, wide)
			}
			if owned < wide+8*4096 {
				t.Errorf("%s: an owned call at 4096 columns allocates %d bytes, a lent one %d: the count shows no column pointers", label, owned, wide)
			}
		}
	}
}

// TestUnionColsAllocatesNothingWithRoom: the stored-column union of a merge's
// doubly-compressed operands writes into the arrays it is handed and keeps
// its k-way cursors on the stack, so a union whose arrays have room
// allocates nothing, for one operand up to sixteen (q stages, or l fiber
// pieces).
func TestUnionColsAllocatesNothingWithRoom(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		views := make([]colView, k)
		total := 0
		for i := range views {
			views[i] = viewOf(hyperMat(t, 64, 4096, 200, int64(440+i)).ToDCSC())
			total += int(views[i].n)
		}
		buf, cols := make([]int64, total), make([]int32, total)
		if n := testing.AllocsPerRun(20, func() { unionCols(views, buf, cols) }); n != 0 {
			t.Errorf("the union of %d operands allocates %.0f times with room in its arrays", k, n)
		}
	}
}

// TestLentMergeNeverRegrowsItsChunk: a pass that makes output starts each
// range with a chunk of at least its entry bound (fitChunk), so a warm lent
// MulMerge whose output is larger than the chunk the previous call returned
// draws a chunk that fits, best fit from the free list, instead of growing
// the small one column by column. Small merges are lent and kept out until
// one holds a chunk an eighth of the large merge's output or less; all go
// back, that one last. The large merge then allocates at most its two chunk
// arrays more than it does when its own chunk came back last — not the
// steps of a regrowth, two or more an array.
func TestLentMergeNeverRegrowsItsChunk(t *testing.T) {
	sr := semiring.PlusTimes()
	small := []spmat.Matrix{uniformMat(t, 256, 8, 2, 451), uniformMat(t, 256, 8, 2, 452)}
	large := []spmat.Matrix{uniformMat(t, 4096, 256, 32, 453), uniformMat(t, 4096, 256, 32, 454)}
	lend := func(mats []spmat.Matrix) spmat.Matrix {
		out, _ := MulMerge(KernelHashUnsorted, mats, nil, 0, 0, sr, false, true, 1)
		return out
	}
	if !releaseLent(lend(large)) || !releaseLent(lend(small)) {
		t.Fatal("a single-range merge was not lent")
	}
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	var out spmat.Matrix
	for range 3 {
		spmat.Release(lend(large))
	}
	own := mallocs(func() { out = lend(large) })
	nnz := out.NNZ()
	spmat.Release(out)
	var held []spmat.Matrix
	for {
		// A lent output's entry arrays are its whole chunk.
		s := lend(small)
		held = append(held, s)
		if int64(cap(viewOf(s).rows)) <= nnz/8 {
			break
		}
		if len(held) > 1<<16 {
			t.Fatal("no small merge was handed a small chunk")
		}
	}
	for _, s := range held {
		spmat.Release(s)
	}
	after := mallocs(func() { out = lend(large) })
	spmat.Release(out)
	t.Logf("the large merge (%d entries) allocates %d objects after its own chunk came back, %d after a small one", nnz, own, after)
	if after > own+2 {
		t.Errorf("after a small chunk came back the large merge allocates %d objects, %d after its own: its chunk was regrown", after, own)
	}
}
