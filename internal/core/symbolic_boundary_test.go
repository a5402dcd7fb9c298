package core

import (
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// symbolicMaxima runs Alg 3's reductions once to learn the exact per-rank
// maxima (unmerged output, Ã, B̃ nonzeros) the batch decision is built on,
// so boundary tests can place memory budgets exactly at the b=1/b=2 flip.
func symbolicMaxima(t *testing.T, p, l int, a, b *spmat.CSC) (maxC, maxA, maxB int64) {
	t.Helper()
	var mu sync.Mutex
	mpi.Run(p, testCM, func(c *mpi.Comm) {
		g, err := grid.New(c, l)
		if err != nil {
			t.Error(err)
			return
		}
		proc, err := Setup(g, a, b, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		_, nnzC, err := proc.Symbolic3D()
		if err != nil {
			t.Error(err)
			return
		}
		la := g.World.AllreduceInt64(proc.LocalA.NNZ(), mpi.OpMax)
		lb := g.World.AllreduceInt64(proc.LocalB.NNZ(), mpi.OpMax)
		if c.Rank() == 0 {
			mu.Lock()
			maxC, maxA, maxB = nnzC, la, lb
			mu.Unlock()
		}
	})
	return maxC, maxA, maxB
}

// runSymbolicB executes Symbolic3D under the given options on every rank and
// returns the agreed batch estimate.
func runSymbolicB(t *testing.T, p, l int, a, b *spmat.CSC, opts Options) int {
	t.Helper()
	var mu sync.Mutex
	est := -1
	mpi.Run(p, testCM, func(c *mpi.Comm) {
		g, err := grid.New(c, l)
		if err != nil {
			t.Error(err)
			return
		}
		proc, err := Setup(g, a, b, opts)
		if err != nil {
			t.Error(err)
			return
		}
		sb, _, err := proc.Symbolic3D()
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		if est == -1 {
			est = sb
		} else if est != sb {
			t.Errorf("rank %d: symbolic b=%d disagrees with %d", c.Rank(), sb, est)
		}
		mu.Unlock()
	})
	return est
}

// TestSymbolicBatchBoundary pins memory budgets to either side of the exact
// b=1/b=2 boundary of Alg 3 line 12: b = ⌈r·maxC / (M/p − r·(maxA+maxB))⌉
// flips to 2 as soon as the per-process leftover share drops below r·maxC.
// The same
// flip must come out of the staged, pipelined, and thread-parallel symbolic
// paths — the decision drives collective schedules, so any divergence would
// deadlock a real run.
func TestSymbolicBatchBoundary(t *testing.T) {
	const p, l = 8, 2
	a := randomMat(t, 64, 64, 900, 81)
	maxC, maxA, maxB := symbolicMaxima(t, p, l, a, a)
	if maxC == 0 {
		t.Fatal("degenerate workload: symbolic found no output")
	}
	const r = spmat.BytesPerNonzero
	// b=1 iff M/p − r·(maxA+maxB) ≥ r·maxC.
	boundary := int64(p) * r * (maxC + maxA + maxB)

	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"staged", Options{}},
		{"pipelined", Options{Pipeline: true}},
		{"threads", Options{Threads: 4}},
		{"pipelined+threads", Options{Pipeline: true, Threads: 4}},
	} {
		atB := mode.opts
		atB.MemBytes = boundary
		if got := runSymbolicB(t, p, l, a, a, atB); got != 1 {
			t.Errorf("%s: M at boundary (%d): b=%d, want 1", mode.name, boundary, got)
		}
		below := mode.opts
		below.MemBytes = boundary - int64(p) // shaves 1 byte per process
		if got := runSymbolicB(t, p, l, a, a, below); got != 2 {
			t.Errorf("%s: M just below boundary (%d): b=%d, want 2", mode.name, below.MemBytes, got)
		}
	}
}

// TestBatchesForBoundary exercises the decision formula directly at the
// flip, including the inputs-don't-fit error. batchesFor takes the input
// terms as modeled bytes (per-format footprints); the CSC footprint is r·nnz,
// which is what this test feeds it.
func TestBatchesForBoundary(t *testing.T) {
	const r = spmat.BytesPerNonzero
	const maxC, maxA, maxB, p = 1000, 100, 100, 4
	memA, memB := int64(r*maxA), int64(r*maxB)
	boundary := int64(p) * r * (maxC + maxA + maxB)

	if b, err := batchesFor(maxC, memA, memB, boundary, p); err != nil || b != 1 {
		t.Errorf("at boundary: b=%d err=%v, want 1", b, err)
	}
	if b, err := batchesFor(maxC, memA, memB, boundary-p, p); err != nil || b != 2 {
		t.Errorf("just below boundary: b=%d err=%v, want 2", b, err)
	}
	// Inputs alone consume everything.
	if _, err := batchesFor(maxC, memA, memB, int64(p)*(memA+memB), p); err == nil {
		t.Error("inputs exactly exhausting the budget: want error, got none")
	}
}

// TestBatchesForFractionalShare holds the decision to a true ceiling when the
// per-process share is not a whole number of bytes: 48047 bytes over 2 ranks
// leave 24023.5 each, and 1001 unmerged entries at r = 24 bytes (24024) do not
// fit in one batch. An integer-style ceiling, (x + avail − 1)/avail, rounds
// that to b = 1; the planner's induced b (math.Ceil) says 2, and so must the
// runtime. 1000 entries (24000 bytes) fit in one.
func TestBatchesForFractionalShare(t *testing.T) {
	const mem = 48047
	if b, err := batchesFor(1001, 0, 0, mem, 2); err != nil || b != 2 {
		t.Errorf("24024 bytes of output against a 24023.5-byte share: b=%d err=%v, want 2", b, err)
	}
	if b, err := batchesFor(1000, 0, 0, mem, 2); err != nil || b != 1 {
		t.Errorf("24000 bytes of output against a 24023.5-byte share: b=%d err=%v, want 1", b, err)
	}
}
