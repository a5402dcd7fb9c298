//go:build !race

package core

import (
	"runtime"
	"testing"

	"repro/internal/genmat"
	"repro/internal/spmat"
)

// The race detector's allocator is not the one whose bytes this file counts.

// TestLentOutputsAreNotCopied is the allocation guard of every loan the
// engine makes. On a protein-shaped operand batched eight ways over 16 ranks
// in 4 layers (q = 2), a MultiplyDiscard with the kernels' free list warm
// allocates no entry arrays at all, under both schedules: the stage products
// are lent until Merge-Layer has read them, Merge-Layer's outputs until the
// next batch's exchange is posted (or the launcher returns them), and each
// discarded batch until its hook returns. What is left is column metadata —
// 16 ranks × 8 batches × (2 stage products, 4 split views of each under the
// overlapped schedule, a Merge-Layer output or 4, the fiber split, a
// Merge-Fiber output, the batch piece of B), column pointers of a 32-column
// batch block each — and the run's own set-up: 3.3 MB staged and 4.6 MB
// overlapped when this test was written. Copying any one kind of output
// shows: with only the stage products lent, as before the merge outputs
// were, the same multiply allocated 16.4 and 16.5 MB.
//
// The third row is the grid the planner picks for most of the daemon's warm
// count-only jobs: 16 ranks in 16 layers (q = 1), pipelined, one batch, on
// an Erdős–Rényi operand of 2048 columns. Its one stage product is
// Merge-Layer's output and is lent once, whole: 1.8–2.1 MB a multiply when
// this row was written. Planning that stage and merging it per destination,
// as the staged schedule does, turns the one loan into 16 per rank, and the
// same multiply allocated 9.3–11.3 MB.
func TestLentOutputsAreNotCopied(t *testing.T) {
	protein := genmat.SymmetricPermute(genmat.ProteinSimilarity(10, 12, 1), 1)
	for _, row := range []struct {
		a        *spmat.CSC
		l, b     int
		pipeline bool
		metadata int64
	}{
		{protein, 4, 8, false, 6 << 20},
		{protein, 4, 8, true, 6 << 20},
		{genmat.ER(2048, 12, 2), 16, 1, true, 11 << 18},
	} {
		a, pipeline, metadata := row.a, row.pipeline, row.metadata
		rc := RunConfig{P: 16, L: row.l, Cost: testCM, Opts: Options{ForceBatches: row.b, Threads: 1, Pipeline: pipeline}}
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
		t.Logf("l=%d pipeline=%v: %d bytes per multiply, bound %d (entries handed on %d, unmerged %d)", row.l, pipeline, perMultiply, metadata, handedOn, unmerged)
		if perMultiply > metadata {
			t.Errorf("l=%d pipeline=%v: a multiply allocates %d bytes, above the %d of its metadata: an output is copied out of its chunk", row.l, pipeline, perMultiply, metadata)
		}
		if 12*handedOn < metadata || 12*unmerged < metadata {
			t.Fatalf("the merge outputs come to %d bytes and the stage products to %d: copying them would not show above the constant", 12*handedOn, 12*unmerged)
		}
	}
}
