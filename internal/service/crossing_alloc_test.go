//go:build !race

package service

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/genmat"
	"repro/internal/spmat"
)

// The race detector's allocator is not the one whose bytes this file counts.

// TestReturnedProductCrossesOnce is the allocation guard of the streamed
// product. A warm daemon behind httptest runs one return_result multiply; what
// the process allocates for it beyond the same job run in process, its result
// kept but never read, is the product leaving the engine: the client's decode
// into CSC arrays, and the request and the document — 1.1–1.3 wire lengths
// when this test was written, 1.08 while the daemon allocated each product's
// segment table, 1.01 since it refills a pooled one. The in-process job keeps
// its result because a job without one keeps no product at all, so measuring
// against it would count the product's making as its crossing; Multiply hands
// the pieces' chunks back unread before it returns, as the handler does once
// it has streamed them, so both sides make the product in the same reused
// chunks. The bound is 1.25 wire lengths plus 256 KiB (two wire lengths plus
// 1 MiB before the table was pooled). The parent of this test
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
	bound := wire + wire/4 + 1<<18
	t.Logf("returning the product allocated %d bytes beyond the job (%.2fx its %d wire bytes), bound %d", extra, float64(extra)/float64(wire), wire, bound)
	if extra > bound {
		t.Fatalf("returning a %d-byte product allocated %d bytes beyond the job, above 1.25x + 256 KiB: the product is built again on the way out", wire, extra)
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

// TestWarmLoadAllocatesTheResidentOnce is the allocation guard of the
// streamed upload. A warm Client.Load of an operand the daemon has not seen
// allocates the CSC form the registry keeps, decoded once from the body, and
// little else: the client streams the encoding from the matrix, and the
// daemon reads the body into a buffer it reuses. The slack, 64 KiB, covers
// the transport's 32 KiB copy buffer, the requests, the pipe and the registry
// slot: a 155 KB operand's load read its CSC form plus 45 KB when this test
// was written. Encoding the operand whole on the client and reading the body
// into a fresh buffer on the daemon, as uploads did before, read its CSC
// form plus 2.3 wire lengths (513 KB in all).
func TestWarmLoadAllocatesTheResidentOnce(t *testing.T) {
	const slack = 64 << 10
	var mats []*spmat.CSC
	for seed := range int64(8) {
		mats = append(mats, genmat.ER(1024, 12, seed))
	}
	cl, _ := startServer(t, Config{P: 4})
	next := 0
	load := func() {
		if _, err := cl.Load(fmt.Sprint("m", next), mats[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	got := leastAllocated(load, load)
	m := mats[len(mats)-1]
	resident, wire := 8*(int64(m.Cols)+1)+12*m.NNZ(), m.CommBytes()
	t.Logf("a warm load of a new operand allocated %d bytes: its CSC form is %d, its wire %d", got, resident, wire)
	if got > resident+slack {
		t.Fatalf("a warm load of a new operand allocated %d bytes, above its %d-byte CSC form + %d: the operand is copied on its way (%d wire bytes)", got, resident, slack, wire)
	}
}

// TestReturnedProductAllocatesNoSegmentTable: a warm return_result multiply
// streams its product from a segment table it reuses, so core.ProductSegments
// allocates nothing in it. Every allocation is sampled while the test runs,
// and the heap profile's allocation count at sites in ProductSegments itself
// must not move across the multiply.
func TestReturnedProductAllocatesNoSegmentTable(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	a := genmat.RMAT(genmat.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 4, Weighted: true})
	cl, _ := startServer(t, testConfig(t, a))
	if _, err := cl.Load("a", a); err != nil {
		t.Fatal(err)
	}
	returned := func() {
		if _, c, err := cl.Multiply(MultiplyRequest{A: "a", B: "a", ReturnResult: true}); err != nil || c == nil {
			t.Fatalf("product %v, error %v", c, err)
		}
	}
	for range 3 {
		returned()
	}
	before := segmentTableAllocs()
	returned()
	if after := segmentTableAllocs(); after != before {
		t.Fatalf("a warm returned product made %d allocations in core.ProductSegments", after-before)
	}
}

// segmentTableAllocs is the count of objects allocated so far at sites whose
// first frame outside the runtime is core.ProductSegments, as of a heap
// profile two collections from now: the profile publishes a cycle late.
func segmentTableAllocs() int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	var count int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if !strings.HasPrefix(f.Function, "runtime.") {
				if strings.HasSuffix(f.Function, "core.ProductSegments") {
					count += r.AllocObjects
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return count
}
