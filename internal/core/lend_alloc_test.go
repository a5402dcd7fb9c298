//go:build !race

package core

import (
	"runtime"
	"testing"

	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// The race detector's allocator is not the one whose bytes this file counts.

// TestLentOutputsAreNotCopied is the allocation guard of every loan the
// engine makes. On a protein-shaped operand batched eight ways over 16 ranks
// in 4 layers (q = 2), a MultiplyDiscard with the kernels' free list warm
// allocates no entry arrays at all, under both schedules: the stage products
// are lent until Merge-Layer has read them, Merge-Layer's outputs until the
// next batch's exchange is posted (or the launcher releases them), and each
// discarded batch until its hook returns. The column metadata of a lent
// output, and of the fiber views cut from it, is drawn from the free list
// too, and so are B's batch pieces until no column peer reads them. What
// is left is the metadata of outputs two workers made, each call's own small
// objects (plans, merge passes, piece, output and view headers) and the run's
// set-up: 3.3 MB staged and 4.6 MB overlapped when this test was written,
// 1.7–1.8 and 3.5–4.0 MB once lent outputs' metadata was lent too, 0.71 and
// 1.03 MB while the batch pieces were still copied, and 0.39–0.43 and
// 0.67–0.73 MB once they were lent, which bounds of 576 and 896 KiB hold
// with about a quarter to spare and which a copied piece crosses. Copying any
// one kind of output shows: with only the stage products lent, as before the
// merge outputs were, the same multiply allocated 16.4 and 16.5 MB.
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
		{protein, 4, 8, false, false, 576 << 10},
		{protein, 4, 8, true, false, 896 << 10},
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

// TestOneShotDealIsLent is the allocation guard of the lent deal. A warm
// one-shot call deals both operands into arrays the call before gave back,
// so it allocates what the same run on operands the caller dealt once
// (MultiplyDealt) allocates, plus the deal's headers — block structs, the
// grid slices, a few bounds — which do not grow with the operands: at most
// dealSlack. Two shapes, each at two sizes 4× apart in nonzeros:
// kmer-hyper's, a hypersparse k-mer matrix times its transpose over 16 ranks
// in 4 layers, one batch, assembled (Multiply); protein-batched's, a protein
// similarity matrix squared under bench/'s budget, which batches it,
// discarded with no hook (MultiplyDiscard). The kmer call allocates at most
// its assembled product's bytes plus assemblySlack, and what either call
// allocates beyond its product grows by at most growthSlack from the small
// operand to the large: B's batch pieces are drawn from the free list too.
//
// When this test was written a warm call's deal cost 5.6–5.8 KB (kmer) and
// 4.7–5.0 KB (protein) over the kept-deal run, and the kmer call 0.13 and
// 0.15 MB beyond its 0.08 and 0.31 MB product. Before the deal was lent it
// cost 0.55 and 2.2 MB (kmer) and 0.26 and 1.1 MB (protein) —
// spmat.(*dealer).place and the AUX arrays of DCSC.index, growing with the
// operands — and the kmer call 0.68 and 2.3 MB beyond its product. The
// protein call read 1.13 and 1.29 MB while every batch piece of B was
// copied (+0.16 MB with the operand, above growthSlack), and 0.98 and
// 0.63 MB once the pieces were lent: the budget batches the small operand 23
// ways and the large one 14, and what is left grows with b (about 38 KB a
// batch, the per-batch headers), not with the operand.
func TestOneShotDealIsLent(t *testing.T) {
	const (
		dealSlack     = 16 << 10
		assemblySlack = 512 << 10
		growthSlack   = 64 << 10
	)
	kmer := func(reads int32) *spmat.CSC {
		return genmat.Kmer(genmat.KmerConfig{Reads: reads, Kmers: 64 * reads, KmersPerRead: 24, Overlap: 0.08, Seed: 1})
	}
	protein := func(scale int) *spmat.CSC {
		return genmat.SymmetricPermute(genmat.ProteinSimilarity(scale, 12, 1), 1)
	}
	for _, shape := range []struct {
		name      string
		operands  [2]*spmat.CSC
		transpose bool
		budgeted  bool
	}{
		{"kmer", [2]*spmat.CSC{kmer(512), kmer(2048)}, true, false},
		{"protein", [2]*spmat.CSC{protein(9), protein(11)}, false, true},
	} {
		var beyond [2]int64
		for size, a := range shape.operands {
			b := a
			if shape.transpose {
				b = spmat.Transpose(a)
			}
			rc := RunConfig{P: 16, L: 4, Cost: testCM, Opts: Options{ForceBatches: 1, Threads: 1}}
			if shape.budgeted {
				// bench/'s budget: the symbolic step must batch.
				nnzC := localmm.MulMat(localmm.KernelHashUnsorted, a, b, semiring.PlusTimes(), 1).NNZ()
				rc.Opts = Options{MemBytes: 24 * (2*a.NNZ() + nnzC) / 3, Threads: 1}
			}
			da, err := Deal(a, RoleA, rc)
			if err != nil {
				t.Fatal(err)
			}
			db, err := Deal(b, RoleB, rc)
			if err != nil {
				t.Fatal(err)
			}
			// product is the assembled C's bytes (0 when discarded).
			var product int64
			oneShot := func() {
				if shape.budgeted {
					if _, _, err := MultiplyDiscard(a, b, rc, nil); err != nil {
						t.Fatal(err)
					}
					return
				}
				c, _, _, err := Multiply(a, b, rc, nil)
				if err != nil {
					t.Fatal(err)
				}
				product = c.CommBytes()
			}
			kept := func() {
				results, _, err := MultiplyDealt(da, db, rc, nil, shape.budgeted)
				if err != nil {
					t.Fatal(err)
				}
				if shape.budgeted {
					return
				}
				if _, err := AssembleResults(results, a.Rows, b.Cols); err != nil {
					t.Fatal(err)
				}
				for _, r := range results {
					r.Release()
				}
			}
			least := leastBytesPerCall(oneShot, kept)
			deal := least[0] - least[1]
			beyond[size] = least[0] - product
			t.Logf("%s nnz=%d: a one-shot call allocates %d bytes, %d beyond its %d-byte product and %d beyond the run on a kept deal (the operands' entries are %d bytes)",
				shape.name, a.NNZ(), least[0], beyond[size], product, deal, 12*(a.NNZ()+b.NNZ()))
			if deal > dealSlack {
				t.Errorf("%s nnz=%d: a warm one-shot call allocates %d bytes more than the run on a kept deal, above the %d of the deal's headers: the deal's arrays are not lent",
					shape.name, a.NNZ(), deal, dealSlack)
			}
			if !shape.budgeted && beyond[size] > assemblySlack {
				t.Errorf("%s nnz=%d: a warm one-shot call allocates %d bytes beyond its %d-byte product, above the %d slack",
					shape.name, a.NNZ(), beyond[size], product, assemblySlack)
			}
		}
		if beyond[1]-beyond[0] > growthSlack {
			t.Errorf("%s: the bytes a call allocates beyond its product grow from %d to %d with 4× the nonzeros, above the %d slack",
				shape.name, beyond[0], beyond[1], growthSlack)
		}
	}
}

// TestBatchesAddOnlyHeaders is the allocation pin of B's batch pieces. A warm
// discarding multiply of one protein operand over 16 ranks in 4 layers,
// batched b ways (ForceBatches), allocates beyond the same multiply in one
// batch only each further batch's headers — plans, merge passes, piece,
// output and view headers — at most perBatch a batch, under either schedule.
// The pieces are drawn from the free list and given back a batch later.
// Copied, they would be the whole of the local B at every b > 1, whatever b,
// so it is at b = 2 that a copied piece shows, as that one extra batch's
// cost: 0.37 MB staged and 0.41 MB pipelined while the pieces were copied,
// against 40 and 78 KB once they were lent (38.6 and 74.5 KB a batch at
// b = 8; 85 and 121 KB while copied).
func TestBatchesAddOnlyHeaders(t *testing.T) {
	const perBatch = 96 << 10
	a := genmat.SymmetricPermute(genmat.ProteinSimilarity(10, 12, 1), 1)
	for _, pipeline := range []bool{false, true} {
		var one int64
		for _, b := range []int{1, 2, 8} {
			rc := RunConfig{P: 16, L: 4, Cost: testCM, Opts: Options{ForceBatches: b, Threads: 1, Pipeline: pipeline}}
			least := leastBytesPerCall(func() {
				if _, _, err := MultiplyDiscard(a, a, rc, nil); err != nil {
					t.Fatal(err)
				}
			})[0]
			if b == 1 {
				one = least
				continue
			}
			extra := (least - one) / int64(b-1)
			t.Logf("pipeline=%v b=%d: %d bytes a multiply, %d a batch beyond the %d of one batch", pipeline, b, least, extra, one)
			if extra > perBatch {
				t.Errorf("pipeline=%v b=%d: each batch past the first allocates %d bytes, above the %d of its headers: B's batch pieces are copied", pipeline, b, extra, perBatch)
			}
		}
	}
}

// leastBytesPerCall warms the calls up and returns, for each, the fewest
// bytes one call of it allocated over five, the calls alternating. The
// kernels' free lists take a few calls to fill, and a collection between
// calls empties the sync.Pools (the deal's count-and-place scratch among
// them); the least of several calls is what a call needs.
func leastBytesPerCall(calls ...func()) []int64 {
	const runs = 5
	for range runs {
		for _, call := range calls {
			call()
		}
	}
	least := make([]int64, len(calls))
	for r := range runs {
		for i, call := range calls {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			call()
			runtime.ReadMemStats(&after)
			if n := int64(after.TotalAlloc - before.TotalAlloc); r == 0 || n < least[i] {
				least[i] = n
			}
		}
	}
	return least
}
