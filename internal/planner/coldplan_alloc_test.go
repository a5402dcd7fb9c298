//go:build !race

package planner_test

import (
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/planner"
	"repro/internal/spmat"
)

// The race detector's allocator, and its sync.Pool that drops what it is
// given at random, are not the ones whose bytes this file counts.

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A cold plan allocates O(nnz + q²·l) per grid, never a buffer sized by a
// dimension: on empty 16 × n and n × 16 operands at p = 64 it allocates the
// same at n = 2¹⁶ and 2²⁰, within 64 KiB, and at either n stays under
// 64 KiB + 256 bytes per unit of nnz(A) + nnz(B) + Σ over the grids of q²·l.
// (Statistics sized by the inner dimension cost 8.2 MB and 129 MB here.)
func TestColdPlanAllocationIgnoresDimension(t *testing.T) {
	const p = 64
	var gridCells int
	for _, l := range planner.LayersFor(p) {
		q, err := grid.SideFor(p, l)
		if err != nil {
			t.Fatal(err)
		}
		gridCells += q * q * l
	}
	// The first plan of a process takes its scratch; the pin is on what
	// every plan allocates. A collection now, not inside a measured plan,
	// would empty the pools the first plan filled.
	runtime.GC()
	if _, err := planner.New(spmat.New(16, 64), spmat.New(64, 16), planner.Input{P: p}); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, n := range []int32{1 << 16, 1 << 20} {
		a, b := spmat.New(16, n), spmat.New(n, 16)
		var err error
		grew := allocated(func() { _, err = planner.New(a, b, planner.Input{P: p}) })
		if err != nil {
			t.Fatal(err)
		}
		bound := uint64(64<<10 + 256*(int(a.NNZ()+b.NNZ())+gridCells))
		if grew > bound {
			t.Errorf("n = %d: a cold plan allocated %d bytes, over the %d-byte bound", n, grew, bound)
		}
		got = append(got, grew)
	}
	if d := int64(got[1]) - int64(got[0]); d > 64<<10 || d < -64<<10 {
		t.Errorf("a cold plan allocated %d bytes at n = 2^16 and %d at 2^20: it grows with the inner dimension", got[0], got[1])
	}
}
