package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/distmat"
	"repro/internal/grid"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// TestPipelinedOutputBitIdentical: the pipelined schedule reorders only when
// broadcasts are posted, never which operands a stage multiplies or the
// order stage products are merged in, so the output must be bit-identical to
// the staged schedule across kernels, mergers, grids and batch counts.
func TestPipelinedOutputBitIdentical(t *testing.T) {
	a := randomMat(t, 48, 48, 500, 71)
	b := randomMat(t, 48, 48, 500, 72)
	for _, tc := range []struct {
		p, l, batches int
		kernel        localmm.Kernel
		threads       int
	}{
		{p: 4, l: 1, batches: 1, kernel: localmm.KernelHashUnsorted},
		{p: 4, l: 1, batches: 3, kernel: localmm.KernelHashUnsorted},
		{p: 8, l: 2, batches: 2, kernel: localmm.KernelHashUnsorted},
		{p: 16, l: 4, batches: 3, kernel: localmm.KernelHashUnsorted},
		{p: 8, l: 2, batches: 2, kernel: localmm.KernelHashSorted},
		{p: 8, l: 2, batches: 3, kernel: localmm.KernelHashUnsorted},
		{p: 9, l: 1, batches: 2, kernel: localmm.KernelHashSorted},
		{p: 16, l: 4, batches: 2, kernel: localmm.KernelHashUnsorted},
		{p: 8, l: 2, batches: 2, kernel: localmm.KernelHashUnsorted, threads: 4},
	} {
		name := fmt.Sprintf("p=%d,l=%d,b=%d,k=%v,t=%d",
			tc.p, tc.l, tc.batches, tc.kernel, tc.threads)
		opts := Options{
			ForceBatches: tc.batches, Kernel: tc.kernel,
			Threads: tc.threads,
		}
		staged, _, _ := runDistributed(t, tc.p, tc.l, a, b, opts, nil)
		opts.Pipeline = true
		piped, _, _ := runDistributed(t, tc.p, tc.l, a, b, opts, nil)
		if !spmat.Equal(staged, piped) {
			t.Errorf("%s: pipelined output differs from staged", name)
		}
	}
}

// TestPipelineOverlapObservable: with Pipeline on, stage s+1's broadcasts
// are posted before stage s's multiply completes, so part of their modeled
// cost must land in the hidden meter categories; the exposed share can only
// shrink, and the volume accounting (bytes, messages) must not move at all.
func TestPipelineOverlapObservable(t *testing.T) {
	a := randomMat(t, 64, 64, 1500, 73)
	opts := Options{ForceBatches: 2, RunSymbolic: true}
	_, _, staged := runDistributed(t, 16, 4, a, a, opts, nil)
	opts.Pipeline = true
	_, _, piped := runDistributed(t, 16, 4, a, a, opts, nil)

	var hidden float64
	for _, cat := range HiddenSteps {
		hidden += piped.Step(cat).HiddenSeconds
	}
	if hidden <= 0 {
		t.Fatalf("pipelined run hid no broadcast time (categories %v)", piped.Categories())
	}
	for _, cat := range HiddenSteps {
		if s := staged.Step(cat).HiddenSeconds; s != 0 {
			t.Errorf("staged run charged hidden category %s: %v", cat, s)
		}
	}
	// Hidden time overlapped compute, so it must not re-enter the exposed
	// communication totals: across all categories (hidden ones included,
	// whose CommSeconds stay zero) pipelining can only shrink exposed comm.
	// Modeled costs are deterministic, so strict inequality is safe here.
	if pc, sc := piped.TotalCommSeconds(), staged.TotalCommSeconds(); pc >= sc {
		t.Errorf("exposed comm did not shrink under pipelining: %v >= %v", pc, sc)
	}
	for _, cat := range []string{StepSymbolic, StepABcast, StepBBcast} {
		ss, ps := staged.Step(cat), piped.Step(cat)
		if ps.CommSeconds > ss.CommSeconds {
			t.Errorf("%s: exposed comm grew under pipelining: %v > %v", cat, ps.CommSeconds, ss.CommSeconds)
		}
		if ps.Bytes != ss.Bytes || ps.Messages != ss.Messages {
			t.Errorf("%s: volume changed under pipelining: %d B/%d msgs vs %d B/%d msgs",
				cat, ps.Bytes, ps.Messages, ss.Bytes, ss.Messages)
		}
	}
}

// TestOverlapLedgerGapClaims: a request completed out of posting order — the
// fiber exchange, posted late, waits before the prefetched next-batch
// broadcasts, posted early — must not swallow the unclaimed compute window
// of the earlier-posted request. The ledger claims earliest-first over
// disjoint intervals; a single high-watermark would hand request 1 only the
// tail and undercount hidden communication.
func TestOverlapLedgerGapClaims(t *testing.T) {
	approx := func(got, want float64) bool { return got > want-1e-12 && got < want+1e-12 }
	var led overlapLedger
	// Request 1 posts at clock 0; 1.0 s of compute runs.
	led.advance(1.0)
	post2 := led.clock // request 2 posts at clock 1.0; 0.5 s more compute.
	led.advance(0.5)
	// Request 2 waits first and hides 0.4 s — from its own window only.
	if c := led.creditSince(post2); !approx(c, 0.5) {
		t.Fatalf("request 2 credit %v, want 0.5", c)
	}
	led.claim(post2, 0.4)
	// Request 1's window is [0, 1.5) minus the claimed [1.0, 1.4): 1.1 s.
	// (A watermark ledger would report only 1.5 − 1.4 = 0.1 s.)
	if c := led.creditSince(0); !approx(c, 1.1) {
		t.Fatalf("request 1 credit %v, want 1.1", c)
	}
	led.claim(0, 1.1)
	if c := led.creditSince(0); !approx(c, 0) {
		t.Fatalf("credit %v after draining, want 0", c)
	}
	// Fresh compute is visible again, to any post.
	led.advance(0.25)
	if c := led.creditSince(0); !approx(c, 0.25) {
		t.Fatalf("credit %v after new compute, want 0.25", c)
	}
	if c := led.creditSince(led.clock); c != 0 {
		t.Fatalf("future post sees credit %v", c)
	}
}

// runWithCost is runDistributed under a caller-chosen cost model.
func runWithCost(t testing.TB, p, l int, cm mpi.CostModel, a, b *spmat.CSC, opts Options) (*spmat.CSC, *mpi.Summary) {
	t.Helper()
	results := make([]*Result, p)
	var mu sync.Mutex
	var firstErr error
	meters := mpi.Run(p, cm, func(c *mpi.Comm) {
		g, err := grid.New(c, l)
		if err == nil {
			var proc *Proc
			proc, err = Setup(g, a, b, opts)
			if err == nil {
				var res *Result
				res, err = proc.BatchedSUMMA3D(nil)
				results[c.Rank()] = res
			}
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	if firstErr != nil {
		t.Fatalf("distributed run failed: %v", firstErr)
	}
	assembled, err := AssembleResults(results, a.Rows, b.Cols)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return assembled, mpi.Summarize(meters)
}

// TestFullPipelineHidesBatchBoundariesAndFiberExchange pins the
// fully-overlapped schedule's hiding power exactly. Under a latency-only cost
// model (β=0) every broadcast on a q=2 communicator costs exactly α and the
// fiber exchange on l=2 layers costs exactly α per batch, while each hiding
// window contains microseconds of measured compute — so every collective the
// schedule can prefetch is hidden completely, and the exposed remainders are
// predictable in closed form:
//
//   - A/B broadcasts: q·b = 6 requests per rank. Only batch 0's stage 0 is
//     unprefetchable (nothing computes before it), so exposed = α and hidden
//     = 5α. A within-batch-only pipeline (PR 2) would leave every batch's
//     stage 0 exposed (3α) — this test is the differential proof of the
//     cross-batch prefetch.
//   - Fiber AllToAll: posted before the own-layer Merge-Layer share, so all
//     b·(l−1)·α = 3α hides behind it and exposed = 0.
//
// The cross-batch prefetch is then checked again with the sparse A path
// forced, across the stage loop's two callers: once after Symbolic3D ran
// through the loop and recorded the stage subsets, once with it skipped.
func TestFullPipelineHidesBatchBoundariesAndFiberExchange(t *testing.T) {
	const alpha = 1e-9
	cm := mpi.CostModel{AlphaSec: alpha} // latency-only: every bcast costs α·lg q
	const p, l, b = 8, 2, 3              // q = 2
	a := randomMat(t, 64, 64, 1200, 75)
	bm := randomMat(t, 64, 64, 1200, 76)

	staged, sSum := runWithCost(t, p, l, cm, a, bm, Options{ForceBatches: b})
	piped, pSum := runWithCost(t, p, l, cm, a, bm, Options{ForceBatches: b, Pipeline: true})
	if !spmat.Equal(staged, piped) {
		t.Fatal("fully-overlapped output differs from staged")
	}

	const tol = 1e-13
	approx := func(got, want float64) bool { return got > want-tol && got < want+tol }
	for _, tc := range []struct {
		step, hiddenStep        string
		wantStaged              float64
		wantExposed, wantHidden float64
	}{
		{StepABcast, StepABcastHidden, 6 * alpha, alpha, 5 * alpha},
		{StepBBcast, StepBBcastHidden, 6 * alpha, alpha, 5 * alpha},
		{StepAllToAll, StepAllToAllHidden, 3 * alpha, 0, 3 * alpha},
	} {
		if got := sSum.Step(tc.step).CommSeconds; !approx(got, tc.wantStaged) {
			t.Errorf("%s staged exposed %v, want %v", tc.step, got, tc.wantStaged)
		}
		if got := sSum.Step(tc.hiddenStep).HiddenSeconds; got != 0 {
			t.Errorf("%s staged hid %v, want 0", tc.step, got)
		}
		if got := pSum.Step(tc.step).CommSeconds; !approx(got, tc.wantExposed) {
			t.Errorf("%s overlapped exposed %v, want %v", tc.step, got, tc.wantExposed)
		}
		if got := pSum.Step(tc.hiddenStep).HiddenSeconds; !approx(got, tc.wantHidden) {
			t.Errorf("%s overlapped hidden %v, want %v", tc.step, got, tc.wantHidden)
		}
		// Volume accounting is mode-independent: the overlapped schedule moves
		// the same payloads (the AllToAll keeps its self piece local in both).
		ss, ps := sSum.Step(tc.step), pSum.Step(tc.step)
		if ss.Bytes != ps.Bytes || ss.Messages != ps.Messages {
			t.Errorf("%s volume changed: staged %d B/%d msgs, overlapped %d B/%d msgs",
				tc.step, ss.Bytes, ss.Messages, ps.Bytes, ps.Messages)
		}
	}

	// Between batches the hook must find the next batch's stage-0 broadcasts
	// already posted, and the last post a stage-0 one, so it came from the
	// finished batch's last stage. No prefetch may outlive the run: a later
	// symbolic pass through the loop would consume it as its own stage 0.
	sparseRun := func(symbolic, pipeline bool, batches int) *mpi.Summary {
		opts := Options{ForceBatches: batches, RunSymbolic: symbolic, Pipeline: pipeline, SparseComm: mpi.SparseOn}
		results := make([]*Result, p)
		meters := mpi.Run(p, cm, func(c *mpi.Comm) {
			g, err := grid.New(c, l)
			if err != nil {
				t.Error(err)
				return
			}
			proc, err := Setup(g, a, bm, opts)
			if err != nil {
				t.Error(err)
				return
			}
			results[c.Rank()], err = proc.BatchedSUMMA3D(func(batch int, _ []int32, _ *spmat.CSC) *spmat.CSC {
				want := pipeline && batch+1 < batches
				if proc.pipe.hasNext != want {
					t.Errorf("symbolic=%v b=%d: after batch %d the next batch's stage 0 posted = %v, want %v",
						symbolic, batches, batch, proc.pipe.hasNext, want)
				} else if want && proc.sc.stage != 0 {
					t.Errorf("symbolic=%v b=%d: after batch %d the last post was stage %d, want the next batch's stage 0",
						symbolic, batches, batch, proc.sc.stage)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
			if proc.pipe.hasNext {
				t.Errorf("symbolic=%v b=%d: a prefetched stage outlived the run", symbolic, batches)
			}
		})
		if got, err := AssembleResults(results, a.Rows, bm.Cols); err != nil || !spmat.Equal(got, staged) {
			t.Errorf("symbolic=%v pipeline=%v b=%d: output differs from the staged run's (%v)", symbolic, pipeline, batches, err)
		}
		return mpi.Summarize(meters)
	}
	for _, symbolic := range []bool{false, true} {
		// Only batch 0's stage 0 is exposed, however many batches follow it.
		one, many := sparseRun(symbolic, true, 1), sparseRun(symbolic, true, b)
		if e1, eb := one.Step(StepABcast).CommSeconds, many.Step(StepABcast).CommSeconds; !approx(eb, e1) {
			t.Errorf("symbolic=%v: the sparse A path exposed %v s over %d batches, %v s over one",
				symbolic, eb, b, e1)
		}
		if symbolic {
			// The symbolic pass broadcasts the whole local B at every stage,
			// never a batch piece.
			unpiped := sparseRun(true, false, b)
			if ps, ss := many.Step(StepSymbolic), unpiped.Step(StepSymbolic); ps.Bytes != ss.Bytes || ps.Messages != ss.Messages {
				t.Errorf("symbolic pass moved %d B/%d msgs pipelined, %d B/%d msgs staged",
					ps.Bytes, ps.Messages, ss.Bytes, ss.Messages)
			}
		}
	}
}

// TestNoHiddenWhenPipelineOff: the staged schedule must never charge any of
// the hidden categories — including the new AllToAll-Fiber-Hidden — across
// batching, layering, and the symbolic pass.
func TestNoHiddenWhenPipelineOff(t *testing.T) {
	a := randomMat(t, 48, 48, 600, 77)
	_, _, sum := runDistributed(t, 16, 4, a, a, Options{ForceBatches: 3, RunSymbolic: true}, nil)
	for _, cat := range HiddenSteps {
		if s := sum.Step(cat); s.HiddenSeconds != 0 || s.CommSeconds != 0 || s.Bytes != 0 || s.Messages != 0 {
			t.Errorf("staged run charged hidden category %s: %+v", cat, s)
		}
	}
}

// TestRowBatchedReBroadcastsSmallerOperand: column batching re-broadcasts A
// once per batch (Sec. IV-B), so with nnz(A) ≫ nnz(B) the row-batched
// orientation — C = (Bᵀ·Aᵀ)ᵀ, whose re-broadcast operand is Bᵀ — must put far
// less volume through the A-Broadcast.
func TestRowBatchedReBroadcastsSmallerOperand(t *testing.T) {
	big := randomMat(t, 48, 48, 1200, 73)
	small := randomMat(t, 48, 48, 90, 74)
	rc := RunConfig{P: 4, L: 1, Cost: testCM, Opts: Options{ForceBatches: 4}}

	_, _, colSummary, err := Multiply(big, small, rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rowSummary, err := Multiply(spmat.Transpose(small), spmat.Transpose(big), rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	colRebcast := colSummary.Step(StepABcast).Bytes
	rowRebcast := rowSummary.Step(StepABcast).Bytes
	if !(rowRebcast < colRebcast/2) {
		t.Errorf("row batching rebroadcast %d bytes, column batching %d; expected a large saving",
			rowRebcast, colRebcast)
	}
}

// TestStagedBcastMeteringMatchesBlockingReference: with Pipeline off the
// rewritten stage loop (IbcastStart + immediate Wait) must meter its
// broadcasts exactly like the pre-rewrite implementation, which called the
// blocking Bcast directly. The reference below *is* that old schedule — the
// same per-stage Row/Col Bcast calls under the same categories — run
// independently, so a uniform metering regression in forEachStage (wrong
// category, dropped message, cost charged twice) cannot cancel out.
func TestStagedBcastMeteringMatchesBlockingReference(t *testing.T) {
	const p, l = 8, 2
	a := randomMat(t, 48, 48, 800, 74)
	_, _, got := runDistributed(t, p, l, a, a, Options{ForceBatches: 1}, nil)

	meters := mpi.Run(p, testCM, func(c *mpi.Comm) {
		g, err := grid.New(c, l)
		if err != nil {
			t.Error(err)
			return
		}
		proc, err := Setup(g, a, a, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		c0, c1 := proc.DB.ColRangeOf(g.J)
		bt := distmat.NewBatching(c1-c0, 1, g.L)
		bBatch := spmat.MatColSelect(proc.LocalB, bt.BatchCols(0))
		meter := g.World.Meter()
		for s := 0; s < g.Q; s++ {
			meter.SetCategory(StepABcast)
			var aMsg mpi.Payload
			if g.J == s {
				aMsg = proc.LocalA
			}
			g.Row.Bcast(s, aMsg)
			meter.SetCategory(StepBBcast)
			var bMsg mpi.Payload
			if g.I == s {
				bMsg = bBatch
			}
			g.Col.Bcast(s, bMsg)
		}
	})
	want := mpi.Summarize(meters)
	for _, cat := range []string{StepABcast, StepBBcast} {
		w, g := want.Step(cat), got.Step(cat)
		if w.CommSeconds != g.CommSeconds || w.Bytes != g.Bytes || w.Messages != g.Messages {
			t.Errorf("%s: staged loop metered comm=%v bytes=%d msgs=%d; blocking reference comm=%v bytes=%d msgs=%d",
				cat, g.CommSeconds, g.Bytes, g.Messages, w.CommSeconds, w.Bytes, w.Messages)
		}
	}
}
