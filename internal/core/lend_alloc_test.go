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
// discarded batch until its hook returns. The column metadata of a lent
// output, and of the fiber views cut from it, is the loan's too. What is left
// is the batch pieces of B, the metadata of outputs two workers made, each
// call's own small objects (plans, merge passes, output and view headers) and
// the run's set-up: 3.3 MB staged and 4.6 MB overlapped when this test was
// written, 1.7–1.8 and 3.5–4.0 MB once lent outputs' metadata was lent too.
// Copying any one kind of output shows: with only the stage products lent, as
// before the merge outputs were, the same multiply allocated 16.4 and 16.5 MB.
//
// The third row is the grid the planner picks for most of the daemon's warm
// count-only jobs: 16 ranks in 16 layers (q = 1), pipelined, one batch, on
// an Erdős–Rényi operand of 2048 columns. With one stage nothing overlaps a
// per-destination merge, so Merge-Layer plans the stage and merges it once,
// as the staged schedule does: its output is lent once, whole, and its 16
// fiber views carve their column pointers from the same loan. That read
// 1.1–1.3 MB a multiply, about what it read while the pipelined run made the
// stage's product and passed it through as Merge-Layer's output (1.2–1.35
// MB), against 1.9–2.1 MB while the lent output's and the views' metadata was
// allocated fresh, which the bound of 1.5 MiB turns away.
//
// The fourth row runs the first grid through Multiply with no hook, whose
// batch outputs are lent to the ranks' Results until the assembly has read
// them.
// What it may allocate is its metadata, held to a tighter 4 MiB, and the
// assembled product itself: 6.8 MB a multiply (4.3 MB of it the product) when
// this row was written. Copying the batch outputs out of their chunks, as the
// engine did before kept outputs were lent, read 10.7 MB.
func TestLentOutputsAreNotCopied(t *testing.T) {
	protein := genmat.SymmetricPermute(genmat.ProteinSimilarity(10, 12, 1), 1)
	for _, row := range []struct {
		a         *spmat.CSC
		l, b      int
		pipeline  bool
		assembled bool
		metadata  int64
	}{
		{protein, 4, 8, false, false, 6 << 20},
		{protein, 4, 8, true, false, 6 << 20},
		{genmat.ER(2048, 12, 2), 16, 1, true, false, 6 << 18},
		{protein, 4, 8, false, true, 4 << 20},
	} {
		a, pipeline, metadata := row.a, row.pipeline, row.metadata
		rc := RunConfig{P: 16, L: row.l, Cost: testCM, Opts: Options{ForceBatches: row.b, Threads: 1, Pipeline: pipeline}}
		var product int64
		run := func() (handedOn, unmerged int64) {
			var ranks []*Result
			var err error
			if row.assembled {
				var c *spmat.CSC
				c, ranks, _, err = Multiply(a, a, rc, nil)
				product = c.CommBytes()
			} else {
				ranks, _, err = MultiplyDiscard(a, a, rc, nil)
			}
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
		bound := metadata + product
		t.Logf("l=%d pipeline=%v assembled=%v: %d bytes per multiply, bound %d (entries handed on %d, unmerged %d, product %d bytes)", row.l, pipeline, row.assembled, perMultiply, bound, handedOn, unmerged, product)
		if perMultiply > bound {
			t.Errorf("l=%d pipeline=%v assembled=%v: a multiply allocates %d bytes, above the %d of its metadata and product: an output is copied out of its chunk", row.l, pipeline, row.assembled, perMultiply, bound)
		}
		if 12*handedOn < metadata || 12*unmerged < metadata {
			t.Fatalf("the merge outputs come to %d bytes and the stage products to %d: copying them would not show above the constant", 12*handedOn, 12*unmerged)
		}
	}
}
