package core

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// This file implements the sparse×dense engine: the 1.5D ColA and InnerABC
// schedules of Koanantakool et al. ("Communication-Avoiding Parallel Sparse-
// Dense Matrix-Matrix Multiplication", IPDPS 2016), the family the paper's
// related-work section positions SUMMA against. Both arrange the p ranks as a
// ring of s = p/c positions × c layers (grid.Grid15):
//
//   ColA     — A is block-column partitioned over ring positions and rotates;
//              B and C are column-panel partitioned, stationary, replicated
//              across layers. Partial C panels reduce over the fiber.
//   InnerABC — A is block-row partitioned, stationary, replicated across
//              layers (one-time); B is block-row partitioned and rotates.
//              Partial C row-panels reduce over the fiber.
//
// Each rank walks R = s/c ring rounds; the c layers start R positions apart,
// so together a fiber's ranks see all s blocks of the moving operand exactly
// once. Replication turns (s-1) shift rounds into (R-1) at the price of a
// one-time replication broadcast and a fiber reduction of the dense partial —
// the per-iteration vs one-time split the planner models for iterated SpMM.
//
// Meter categories reuse the paper's steps: the moving/stationary operand
// transfers are metered as A-Broadcast / B-Broadcast per which matrix moved,
// the multiply as Local-Multiply, the fiber allgather of partials as
// AllToAll-Fiber, and the ordered reduction as Merge-Fiber. The pipelined
// variants post the next ring shift before the round's multiply and complete
// it through the overlap ledger, charging the hidden share to the *-Hidden
// categories exactly like the SUMMA pipeline.

// DenseResult is one rank's output of a 1.5D sparse×dense schedule: a dense
// panel of C together with where it lands in the global product. Fiber
// replicas (layers k > 0) hold byte-identical panels; AssembleDense uses the
// layer-0 copies.
type DenseResult struct {
	// C is the local panel, already reduced over the fiber.
	C *spmat.DenseMat
	// RowOffset, ColOffset locate C[0,0] in the global product. ColA panels
	// span all rows (RowOffset 0); InnerABC panels span all columns of their
	// batch range (ColOffset 0).
	RowOffset, ColOffset int32
	// Batches is the number of batches the schedule ran.
	Batches int
	// LocalFlops counts the scalar multiply-adds this rank performed in
	// Local-Multiply (excludes the Merge-Fiber reduction).
	LocalFlops int64
	// PeakMemBytes is the modeled high-water mark of simultaneously live
	// operand, accumulator, and reduction buffers on this rank.
	PeakMemBytes int64
}

// denseProc is the per-rank state of a 1.5D schedule run.
type denseProc struct {
	g    *grid.Grid15
	opts Options
	led  overlapLedger
	res  *DenseResult
}

// measure times fn as one compute section (see Proc.measure) and advances the
// overlap ledger so in-flight shifts accumulate credit.
func (p *denseProc) measure(fn func()) float64 {
	sec := p.g.World.MeasureCompute(fn)
	p.led.advance(sec)
	return sec
}

// workers is Proc.workers for the dense schedules.
func (p *denseProc) workers(flops int64) int {
	return p.g.World.Workers(localmm.Workers(p.opts.Threads, flops))
}

// trackPeak records a high-water candidate for the modeled memory footprint.
func (p *denseProc) trackPeak(bytes int64) {
	if bytes > p.res.PeakMemBytes {
		p.res.PeakMemBytes = bytes
	}
}

// validateDense checks the pieces every 1.5D schedule needs.
func validateDense(a *spmat.CSC, b *spmat.DenseMat, rc RunConfig, opts Options) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("core: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if !opts.Semiring.IsPlusTimes() {
		return fmt.Errorf("core: the dense path accumulates into a zero-initialized dense panel, which is only sound over plus-times")
	}
	return grid.Valid15(rc.P, opts.Replication)
}

// MultiplyDense runs C = A·B for sparse A and dense B on a fresh simulated
// cluster and returns the assembled global product, the per-rank panels, and
// the step metering summary. Opts.Algo selects the schedule: AlgoColA and
// AlgoInnerABC run the 1.5D algorithms with replication Opts.Replication;
// AlgoSUMMA densifies B through the sparse SUMMA pipeline (RunConfig.L
// layers) and returns nil per-rank panels. AutoTuneDenseOnMachine rewrites
// rc to the planner's choice of algorithm, replication and batches.
func MultiplyDense(a *spmat.CSC, b *spmat.DenseMat, rc RunConfig) (*spmat.DenseMat, []*DenseResult, *mpi.Summary, error) {
	opts := rc.Opts.withDefaults()
	if opts.Algo == AlgoSUMMA {
		cs, _, sum, err := Multiply(a, b.ToCSC(), rc, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		return spmat.DenseFromCSC(cs), nil, sum, nil
	}
	if err := validateDense(a, b, rc, opts); err != nil {
		return nil, nil, nil, err
	}
	results := make([]*DenseResult, rc.P)
	meters, err := runRanks(rc, func(c *mpi.Comm) error {
		g, err := grid.New15(c, opts.Replication)
		if err != nil {
			return err
		}
		p := &denseProc{g: g, opts: opts, res: &DenseResult{}}
		results[c.Rank()] = p.res
		switch opts.Algo {
		case AlgoColA:
			return p.runColA(a, b)
		case AlgoInnerABC:
			return p.runInnerABC(a, b)
		}
		return fmt.Errorf("core: MultiplyDense does not implement %v", opts.Algo)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	assembled := AssembleDense(results, a.Rows, b.Cols, rc.P/opts.Replication)
	return assembled, results, mpi.Summarize(meters), nil
}

// AssembleDense stitches the layer-0 panels (ranks 0..s-1) into the global
// product.
func AssembleDense(results []*DenseResult, rows, cols int32, s int) *spmat.DenseMat {
	out := spmat.NewDense(rows, cols)
	for j := 0; j < s; j++ {
		r := results[j]
		r.C.CopyInto(out, r.RowOffset, r.ColOffset)
	}
	return out
}

// batches returns the batch count: ForceBatches clamped to [1, limit]. The
// MemBytes-driven decision is the planner's job (AutoTuneDenseOnMachine sets
// ForceBatches); the schedules themselves only obey.
func (p *denseProc) batches(limit int32) int {
	nb := p.opts.ForceBatches
	if nb < 1 {
		nb = 1
	}
	if limit > 0 && nb > int(limit) {
		nb = int(limit)
	}
	return nb
}

// reduceFiber allgathers the local dense partial along the fiber and sums the
// c layer contributions in ascending layer order, which keeps the result
// bit-identical across runs and replication factors that split the same
// blocks. Returns the reduced panel.
func (p *denseProc) reduceFiber(acc *spmat.DenseMat) *spmat.DenseMat {
	m := p.g.World.Meter()
	if p.g.C == 1 {
		return acc
	}
	m.SetCategory(StepAllToAll)
	parts := p.g.Fiber.Allgather(acc)
	var out *spmat.DenseMat
	sec := p.measure(func() {
		out = spmat.NewDense(acc.Rows, acc.Cols)
		for k := 0; k < p.g.C; k++ {
			parts[k].(*spmat.DenseMat).AddInto(out, 0, 0)
		}
	})
	m.SetCategory(StepMergeFiber)
	m.AddComputeWork(sec, int64(p.g.C)*int64(acc.Rows)*int64(acc.Cols)+1)
	p.trackPeak(int64(p.g.C+2) * acc.MemBytes())
	return out
}

// shiftRing rotates the moving operand one ring position (staged mode) or
// completes the shift posted before the multiply (pipelined mode), charging
// any hidden share to hiddenCat.
func (p *denseProc) shiftRing(cur mpi.Payload, req *mpi.BcastRequest, post float64, cat, hiddenCat string) mpi.Payload {
	m := p.g.World.Meter()
	m.SetCategory(cat)
	if req != nil {
		pay, used := req.WaitOverlap(p.led.creditSince(post), hiddenCat)
		m.Recorder().TagChannel(p.led.claim(post, used))
		return pay
	}
	return p.g.Ring.Shift(1, cur)
}

// localFmt applies the Format knob to a freshly sliced local block.
func (p *denseProc) localFmt(m *spmat.CSC) spmat.Matrix {
	return spmat.WithFormat(m, p.opts.Format)
}

// runColA executes the ColA schedule. A is block-column partitioned over the
// s ring positions and rotates; rank (j,k) owns the stationary column panel
// B[:, bBounds[j]:bBounds[j+1]] (replicated across the fiber) and produces
// the matching panel of C. Batches split the rank's own B panel columns, so
// each batch replays the full ring walk over A.
func (p *denseProc) runColA(a *spmat.CSC, b *spmat.DenseMat) error {
	g, opts := p.g, p.opts
	m := g.World.Meter()
	aBounds := spmat.PartBounds(a.Cols, g.S) // A block-columns == B row blocks
	bBounds := spmat.PartBounds(b.Cols, g.S) // B/C column panels
	myLo, myHi := bBounds[g.J], bBounds[g.J+1]
	width := myHi - myLo
	// The clamp uses the global width so every rank runs the same number of
	// batches — the batch loop contains collectives. Narrow ranks may see
	// empty batch slices; those still participate in every exchange.
	nb := p.batches(b.Cols)
	batch := spmat.PartBounds(width, nb)
	R := g.R()
	p.res.RowOffset, p.res.ColOffset, p.res.Batches = 0, myLo, nb

	// One-time: distribute each walk's starting A block along the skew fiber
	// from its canonical layer-0 owner. This is where the simulation charges
	// the initial data movement a real run would pay.
	start := g.StartBlock()
	var startPay mpi.Payload
	if g.Skew.Rank() == 0 {
		startPay = p.localFmt(spmat.ColRange(a, aBounds[start], aBounds[start+1]))
	}
	m.SetCategory(StepABcast)
	cur := g.Skew.Bcast(0, startPay).(spmat.Matrix)

	tr := m.Recorder()
	pieces := make([]*spmat.DenseMat, nb)
	for t := 0; t < nb; t++ {
		tr.SetBatch(t)
		lo, hi := myLo+batch[t], myLo+batch[t+1]
		// One-time (per batch slice): replicate the stationary B panel along
		// the fiber from its layer-0 owner.
		var bPay mpi.Payload
		if g.Fiber.Rank() == 0 {
			bPay = spmat.DenseColRange(b, lo, hi)
		}
		m.SetCategory(StepBBcast)
		bPanel := g.Fiber.Bcast(0, bPay).(*spmat.DenseMat)

		acc := spmat.NewDense(a.Rows, hi-lo)
		blk := start
		for r := 0; r < R; r++ {
			tr.SetStage(r)
			// The shift ships the block we hold now; pipelined mode posts it
			// before the multiply so the exchange hides behind compute. The
			// last round of the last batch has nothing left to move; between
			// batches the walk rewinds to the start block (offset R-1 forward
			// in source space ≡ -(R-1) in position, expressed as shifting the
			// held block onward around the ring R-1 more times collapsed into
			// one rewind shift below).
			var req *mpi.BcastRequest
			var post float64
			if r < R-1 && opts.Pipeline {
				post = p.led.clock
				req = g.Ring.IshiftStart(1, cur)
			}
			bView := spmat.DenseRowView(bPanel, aBounds[blk], aBounds[blk+1])
			flops := localmm.SpMMFlops(cur, acc.Cols)
			sec := p.measure(func() { localmm.SpMMInto(acc, cur, bView, p.workers(flops)) })
			m.SetCategory(StepLocalMult)
			m.AddComputeWork(sec, flops+1)
			p.res.LocalFlops += flops
			liveShift := int64(1)
			if req != nil {
				liveShift = 2
			}
			p.trackPeak(liveShift*cur.MemBytes() + bPanel.MemBytes() + acc.MemBytes())
			if r < R-1 {
				cur = p.shiftRing(cur, req, post, StepABcast, StepABcastHidden).(spmat.Matrix)
				blk = (blk + 1) % g.S
			}
		}
		tr.SetStage(-1)
		if t < nb-1 && R > 1 {
			// Rewind the ring walk for the next batch.
			m.SetCategory(StepABcast)
			cur = g.Ring.Shift(-(R - 1), cur).(spmat.Matrix)
			blk = start
		}
		pieces[t] = p.reduceFiber(acc)
	}
	tr.SetBatch(-1)
	p.res.C = p.assemblePieces(pieces)
	return nil
}

// runInnerABC executes the InnerABC schedule. A is block-row partitioned and
// stationary: rank (j,k) holds A[rowBounds[j]:rowBounds[j+1], :], replicated
// along the fiber once, pre-split into its s column blocks. B is block-row
// partitioned and rotates. Batches split the global dense width d, so each
// batch distributes fresh starting B blocks via the skew fiber — there is no
// rewind shift, the moving panels are batch-local.
func (p *denseProc) runInnerABC(a *spmat.CSC, b *spmat.DenseMat) error {
	g, opts := p.g, p.opts
	m := g.World.Meter()
	rowBounds := spmat.PartBounds(a.Rows, g.S)   // A block-rows == C row panels
	innerBounds := spmat.PartBounds(a.Cols, g.S) // inner dim == B row blocks
	rl, rh := rowBounds[g.J], rowBounds[g.J+1]
	nb := p.batches(b.Cols)
	dBounds := spmat.PartBounds(b.Cols, nb)
	R := g.R()
	p.res.RowOffset, p.res.ColOffset, p.res.Batches = rl, 0, nb

	// One-time: replicate the stationary A block-row along the fiber, then
	// pre-split it into its s column slices so each ring round multiplies the
	// slice matching the B block it holds. The split is packing work, metered
	// as Merge-Layer like the SUMMA-side ColSplit packing.
	var rowPay mpi.Payload
	if g.Fiber.Rank() == 0 {
		rowPay = spmat.RowRange(a, rl, rh)
	}
	m.SetCategory(StepABcast)
	aRow := g.Fiber.Bcast(0, rowPay).(*spmat.CSC)
	aParts := make([]spmat.Matrix, g.S)
	sec := p.measure(func() {
		for blk := range aParts {
			aParts[blk] = p.localFmt(spmat.ColRange(aRow, innerBounds[blk], innerBounds[blk+1]))
		}
	})
	m.SetCategory(StepMergeLayer)
	m.AddComputeWork(sec, aRow.NNZ()+int64(a.Cols)+1)
	var aMem int64
	for _, part := range aParts {
		aMem += part.MemBytes()
	}

	start := g.StartBlock()
	tr := m.Recorder()
	pieces := make([]*spmat.DenseMat, nb)
	for t := 0; t < nb; t++ {
		tr.SetBatch(t)
		dl, dh := dBounds[t], dBounds[t+1]
		// Distribute each walk's starting B block along the skew fiber from
		// its canonical layer-0 owner.
		var startPay mpi.Payload
		if g.Skew.Rank() == 0 {
			startPay = spmat.DenseColRange(spmat.DenseRowView(b, innerBounds[start], innerBounds[start+1]), dl, dh)
		}
		m.SetCategory(StepBBcast)
		cur := g.Skew.Bcast(0, startPay).(*spmat.DenseMat)

		acc := spmat.NewDense(rh-rl, dh-dl)
		blk := start
		for r := 0; r < R; r++ {
			tr.SetStage(r)
			var req *mpi.BcastRequest
			var post float64
			if r < R-1 && opts.Pipeline {
				post = p.led.clock
				req = g.Ring.IshiftStart(1, cur)
			}
			flops := localmm.SpMMFlops(aParts[blk], acc.Cols)
			curOp := cur
			sec := p.measure(func() { localmm.SpMMInto(acc, aParts[blk], curOp, p.workers(flops)) })
			m.SetCategory(StepLocalMult)
			m.AddComputeWork(sec, flops+1)
			p.res.LocalFlops += flops
			liveShift := int64(1)
			if req != nil {
				liveShift = 2
			}
			p.trackPeak(aMem + liveShift*cur.MemBytes() + acc.MemBytes())
			if r < R-1 {
				cur = p.shiftRing(cur, req, post, StepBBcast, StepBBcastHidden).(*spmat.DenseMat)
				blk = (blk + 1) % g.S
			}
		}
		tr.SetStage(-1)
		pieces[t] = p.reduceFiber(acc)
	}
	tr.SetBatch(-1)
	p.res.C = p.assemblePieces(pieces)
	return nil
}

// assemblePieces concatenates the per-batch panels column-wise into the
// rank's final panel, metering the copy as Merge-Fiber packing.
func (p *denseProc) assemblePieces(pieces []*spmat.DenseMat) *spmat.DenseMat {
	if len(pieces) == 1 {
		return pieces[0]
	}
	m := p.g.World.Meter()
	var out *spmat.DenseMat
	sec := p.measure(func() { out = spmat.DenseHCat(pieces) })
	m.SetCategory(StepMergeFiber)
	m.AddComputeWork(sec, int64(out.Rows)*int64(out.Cols)+1)
	return out
}
