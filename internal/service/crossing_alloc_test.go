//go:build !race

package service

import (
	"math"
	"testing"

	"repro/internal/genmat"
)

// The race detector's allocator is not the one whose bytes this file counts.

// TestReturnedProductCrossesOnce is the allocation guard of the streamed
// product. A warm daemon behind httptest runs one return_result multiply; what
// the process allocates for it beyond the same job run in process, its result
// kept but never read, is the product leaving the engine: the daemon's
// segment table and stream buffer, and the client's decode into CSC arrays —
// 1.1–1.3 wire lengths when this test was written. The in-process job keeps
// its result because a job without one keeps no product at all, so measuring
// against it would count the product's making as its crossing; Multiply hands
// the pieces' chunks back unread before it returns, as the handler does once
// it has streamed them, so both sides make the product in the same reused
// chunks. The bound is
// two wire lengths plus 1 MiB
// for the request, the document and the buffers. The parent of this test
// assembled the global CSC, serialized it, buffered the whole body in the
// client and decoded that: four copies of the product, 10.2 MB beyond the job
// for a 2.5 MB product here (4.0×).
func TestReturnedProductCrossesOnce(t *testing.T) {
	a := genmat.RMAT(genmat.RMATConfig{Scale: 10, EdgeFactor: 12, Seed: 4, Weighted: true})
	cl, s := startServer(t, testConfig(t, a))
	if _, err := cl.Load("a", a); err != nil {
		t.Fatal(err)
	}
	var wire int64
	direct := func() {
		if _, err := s.Multiply(MultiplyRequest{A: "a", B: "a", ReturnResult: true}); err != nil {
			t.Fatal(err)
		}
	}
	overHTTP := func() {
		_, c, err := cl.Multiply(MultiplyRequest{A: "a", B: "a", ReturnResult: true})
		if err != nil {
			t.Fatal(err)
		}
		wire = c.CommBytes()
	}
	// Warm both until the kernels' free lists stop growing (the first job
	// allocates about four times what the fifth does).
	extra := leastAllocated(overHTTP, direct, overHTTP) - leastAllocated(direct)
	bound := 2*wire + 1<<20
	t.Logf("returning the product allocated %d bytes beyond the job (%.1fx its %d wire bytes), bound %d", extra, float64(extra)/float64(wire), wire, bound)
	if extra > bound {
		t.Fatalf("returning a %d-byte product allocated %d bytes beyond the job, above 2x + 1 MiB: the product is built again on the way out", wire, extra)
	}
}

// leastAllocated is the least a few runs of run allocate, after five warm-up
// rounds of warm: TotalAlloc is the whole process's, and the kernels' free
// lists fill over the first jobs.
func leastAllocated(run func(), warm ...func()) int64 {
	for range 5 {
		for _, w := range warm {
			w()
		}
	}
	best := int64(math.MaxInt64)
	for range 3 {
		best = min(best, int64(allocatedBy(run)))
	}
	return best
}

// TestReturnedProductIsLent is the allocation guard of the kept product's
// loan. A warm return_result multiply over HTTP makes its product in the
// kernels' lent chunks, streams it from them and hands them back, so beyond
// the same count-only job — which lends every output too and keeps none — it
// allocates only the product's crossing: 1.03–1.23 wire lengths when this
// test was written. Copying the batch outputs out of their chunks, as the
// engine did before kept products were lent, adds one more product: the same
// jobs read 2.12–2.22 wire lengths then. The bound, 1.5 wire lengths plus
// 256 KiB, sits between the two.
func TestReturnedProductIsLent(t *testing.T) {
	a := genmat.RMAT(genmat.RMATConfig{Scale: 10, EdgeFactor: 12, Seed: 4, Weighted: true})
	cl, _ := startServer(t, testConfig(t, a))
	if _, err := cl.Load("a", a); err != nil {
		t.Fatal(err)
	}
	var wire int64
	returned := func() {
		_, c, err := cl.Multiply(MultiplyRequest{A: "a", B: "a", ReturnResult: true})
		if err != nil {
			t.Fatal(err)
		}
		wire = c.CommBytes()
	}
	counted := func() {
		if _, _, err := cl.Multiply(MultiplyRequest{A: "a", B: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	extra := leastAllocated(returned, returned, counted) - leastAllocated(counted)
	bound := 3*wire/2 + 1<<18
	t.Logf("a warm returned product allocated %d bytes beyond the count-only job (%.2fx its %d wire bytes), bound %d", extra, float64(extra)/float64(wire), wire, bound)
	if extra > bound {
		t.Fatalf("a warm returned product allocated %d bytes beyond the count-only job, above 1.5x its %d wire bytes + 256 KiB: the kept batch outputs are copied out of their chunks", extra, wire)
	}
}
