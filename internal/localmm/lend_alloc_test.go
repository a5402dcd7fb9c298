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
// of its loan's arrays — the entries the worker's chunk, the column pointers
// and stored columns the shell's — so what a warm lent Plan.Mul or MulMerge
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
		run := func() {
			var loan Loan
			switch call {
			case "Plan.Mul":
				_, loan = pl.Mul(KernelHashUnsorted, sr, lend, 1)
			case "MulMerge":
				_, loan, _ = MulMerge(KernelHashUnsorted, prev, nil, 0, 0, sr, true, lend, 1)
			case "fused MulMerge":
				_, loan, _ = MulMerge(KernelHashUnsorted, prev[1:], []*Plan{pl}, 0, cols, sr, false, lend, 1)
			}
			if lend && loan == (Loan{}) {
				t.Fatalf("%s at %d columns (dcsc=%v) was not lent", call, cols, dcsc)
			}
			loan.Return()
		}
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
