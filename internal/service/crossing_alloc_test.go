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
// against it would count the product's making as its crossing. The bound is
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
	// allocates about four times what the fifth does), then take the least
	// of a few runs of each: TotalAlloc is the whole process's.
	for range 5 {
		direct()
		overHTTP()
	}
	least := func(run func()) int64 {
		best := int64(math.MaxInt64)
		for range 3 {
			best = min(best, int64(allocatedBy(run)))
		}
		return best
	}
	extra := least(overHTTP) - least(direct)
	bound := 2*wire + 1<<20
	t.Logf("returning the product allocated %d bytes beyond the job (%.1fx its %d wire bytes), bound %d", extra, float64(extra)/float64(wire), wire, bound)
	if extra > bound {
		t.Fatalf("returning a %d-byte product allocated %d bytes beyond the job, above 2x + 1 MiB: the product is built again on the way out", wire, extra)
	}
}
