//go:build !race

package core

import (
	"runtime"
	"testing"

	"repro/internal/genmat"
)

// The race detector's allocator is not the one whose bytes this file counts.

// TestStageProductsAreNotCopied is the allocation guard of the lent stage
// product. On a protein-shaped operand batched eight ways over 16 ranks in 4
// layers (q = 2), a multiply with the kernels' free list
// warm allocates the entries it hands on — Merge-Layer's output and
// Merge-Fiber's, 12 bytes each, with the slack a size-classed copy carries —
// and column metadata, under both schedules. It does not allocate the stage
// products: the parent of this test wrote each into a chunk and then copied
// it, another 12 bytes for every unmerged entry, which alone is beyond the
// bound.
func TestStageProductsAreNotCopied(t *testing.T) {
	a := genmat.SymmetricPermute(genmat.ProteinSimilarity(10, 12, 1), 1)
	for _, pipeline := range []bool{false, true} {
		rc := RunConfig{P: 16, L: 4, Cost: testCM, Opts: Options{ForceBatches: 8, Threads: 1, Pipeline: pipeline}}
		run := func() (handedOn, unmerged int64) {
			ranks, _, err := MultiplyDiscard(a, a, rc, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range ranks {
				handedOn += r.MergedLayerNNZ
				unmerged += r.UnmergedNNZ
				for _, n := range r.BatchNNZ {
					handedOn += n
				}
			}
			return handedOn, unmerged
		}
		run()
		run()
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var handedOn, unmerged int64
		for range runs {
			handedOn, unmerged = run()
		}
		runtime.ReadMemStats(&after)
		perMultiply := int64(after.TotalAlloc-before.TotalAlloc) / runs
		// Metadata: 16 ranks × 8 batches × (2 stage products, 4 split views of
		// each under the overlapped schedule, a Merge-Layer output or 4, the
		// fiber split, a Merge-Fiber output, the batch piece of B), column
		// pointers of a 32-column batch block each, plus the run's own set-up.
		const metadata = 4 << 20
		bound := 13*12*handedOn/10 + metadata
		t.Logf("pipeline=%v: %d bytes per multiply, bound %d (entries handed on %d, unmerged %d)", pipeline, perMultiply, bound, handedOn, unmerged)
		if perMultiply > bound {
			t.Errorf("pipeline=%v: a multiply allocates %d bytes, above 1.3 × 12 B × %d entries handed on + %d", pipeline, perMultiply, handedOn, metadata)
		}
		if 12*unmerged < metadata {
			t.Fatalf("the stage products come to %d bytes: copying them would not show above the constant", 12*unmerged)
		}
	}
}
