package core

import (
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// stageBcasts is the pair of in-flight broadcasts feeding one SUMMA stage —
// the double buffer of the pipelined schedule. Posting stage s+1 while stage
// s computes keeps two stages' operands live at once; the serial schedule
// posts and waits in lockstep so only one pair is ever outstanding. post is
// the overlap-ledger clock at post time: the wait may hide the broadcast
// cost behind compute measured after it.
type stageBcasts struct {
	a, b *mpi.BcastRequest
	post float64
}

// postStageBcasts posts stage s's A-broadcast along the process row and its
// B-broadcast along the process column (Alg 1 lines 5–6) without charging
// the meter; cost attribution happens when the stage is consumed
// (waitStageBcasts). bOperand is this rank's B piece to contribute when it
// is the column root (the batch piece for SUMMA, the full local B for the
// symbolic pass). Payloads keep their in-memory format: the simulated wire
// size (CommBytes) depends only on occupancy, never on the format knob.
//
// With the sparse path armed (Options.SparseComm, activated by
// BatchedSUMMA3D once every stage's column subset is known) the A-broadcast
// goes through mpi.IbcastColsStart: each receiver declares the wire size of
// the A columns its stage-s multiplies can touch and the row communicator
// ships point-to-point subsets whenever they model cheaper than the tree
// broadcast (always, under mpi.SparseOn).
func (p *Proc) postStageBcasts(s int, bOperand spmat.Matrix) stageBcasts {
	g := p.G
	var aMsg mpi.Payload
	if g.J == s {
		aMsg = p.LocalA
	}
	var bMsg mpi.Payload
	if g.I == s {
		bMsg = bOperand
	}
	var aReq *mpi.BcastRequest
	if p.sc.active {
		p.sc.stage = s
		aReq = g.Row.IbcastColsStart(s, aMsg, p.sc.fn, p.sc.force)
	} else {
		aReq = g.Row.IbcastStart(s, aMsg)
	}
	return stageBcasts{
		a:    aReq,
		b:    g.Col.IbcastStart(s, bMsg),
		post: p.pipe.ledger.clock,
	}
}

// waitStageBcasts completes a stage's broadcasts and returns its operands.
// The overlap ledger supplies the credit — the unclaimed compute seconds
// measured since the stage was posted (zero in the serial schedule): the
// share of the modeled broadcast cost it covers is charged to the hidden
// categories, the exposed remainder to aCat/bCat. The two broadcasts drain
// the same window — a stage's compute can only hide that much communication,
// no matter how it is split between A and B.
func (p *Proc) waitStageBcasts(sb stageBcasts, aCat, aHidden, bCat, bHidden string) (aRecv, bRecv spmat.Matrix) {
	meter := p.G.World.Meter()
	led := &p.pipe.ledger
	meter.SetCategory(aCat)
	aPay, used := sb.a.WaitOverlap(led.creditSince(sb.post), aHidden)
	meter.Recorder().TagChannel(led.claim(sb.post, used))
	meter.SetCategory(bCat)
	bPay, used := sb.b.WaitOverlap(led.creditSince(sb.post), bHidden)
	meter.Recorder().TagChannel(led.claim(sb.post, used))
	return aPay.(spmat.Matrix), bPay.(spmat.Matrix)
}

// forEachStage runs the q broadcast+multiply stages of Alg 1 over bBatch,
// invoking consume with every stage's partial product. Merges inside consume
// run through Proc.measure — compute sections of their own, dealt cores like
// the multiply's — so their time joins the multiply time as overlap credit in
// the ledger.
//
// With Opts.Pipeline the loop prefetches in two directions. Within the
// batch, stage s+1's broadcasts are posted before stage s's multiply starts,
// so their modeled cost can hide behind the measured compute of stage s.
// Across batches, the last stage posts the NEXT batch's stage-0 broadcasts
// (operand bNextBatch, extracted ahead of time by BatchedSUMMA3D) before its
// own multiply, so even the batch boundary drains nothing: batch t+1's first
// broadcasts hide behind batch t's final multiply, its merges, and its fiber
// exchange. Without Pipeline, each stage posts and immediately waits,
// metering exactly the paper's staged schedule (an IbcastStart + Wait pair
// charges identically to the blocking Bcast).
//
// A stage product is read by the Merge-Layer that follows and by nothing
// else, so wherever that merge is sure to accumulate it into arrays of its
// own the product is only lent (localmm.Plan.MulLent): its entries stay in
// the kernel worker's chunk, and consume's caller returns the loan once the
// last merge that reads the product is done. That is every stage when the
// stages' products are merged together (q > 1), and every stage but the first
// under IncrementalMerge — the first product becomes the accumulator. With
// q = 1 the one product is the Merge-Layer output (a one-operand merge
// returns its operand) and goes on to the fiber exchange or out of the batch,
// so it is an owned copy, as is any product more than one worker made.
func (p *Proc) forEachStage(bBatch, bNextBatch spmat.Matrix, res *Result, consume func(prod spmat.Matrix, loan localmm.Loan)) {
	g := p.G
	meter := g.World.Meter()
	stages := g.Q
	pipe := p.Opts.Pipeline

	var next stageBcasts
	if pipe {
		if p.pipe.hasNext {
			// Stage 0 was prefetched by the previous batch's last stage.
			next = p.pipe.next
			p.pipe.hasNext = false
		} else {
			next = p.postStageBcasts(0, bBatch)
		}
	}
	tr := meter.Recorder()
	for s := 0; s < stages; s++ {
		tr.SetStage(s)
		cur := next
		if !pipe {
			cur = p.postStageBcasts(s, bBatch)
		}
		aRecv, bRecv := p.waitStageBcasts(cur, StepABcast, StepABcastHidden, StepBBcast, StepBBcastHidden)
		if pipe {
			if s+1 < stages {
				next = p.postStageBcasts(s+1, bBatch)
			} else if bNextBatch != nil {
				// Cross-batch prefetch: post the next batch's stage-0
				// broadcasts before this batch's final multiply.
				p.pipe.next = p.postStageBcasts(0, bNextBatch)
				p.pipe.hasNext = true
			}
		}

		// Local multiply (Alg 1 line 7). One pass over the B block counts the
		// stage's flops column by column (localmm.PlanMul) and everything
		// that needs them reads that one vector: Result.LocalFlops, the work
		// units below and, inside the kernel, the worker balance and the
		// hash-table sizes. Work units = flops plus the operand traversal
		// cost, so empty products still carry their column-scan work — the
		// dense column count for CSC operands, only the stored columns for DCSC
		// (the O(n)-per-block term the compressed format removes from the
		// modeled critical path); the unit accounting is deliberately
		// kernel-independent so the modeled critical path never moves with
		// the kernel knob. The kernel runs one worker per core the section
		// holds once the flops are known (Proc.workers) — Opts.Threads at
		// most, fewer whenever other ranks need the cores or the stage is
		// too small to pay for a worker — so intra-rank parallelism appears
		// as shorter measured compute, the paper's 16-threads-per-process
		// configuration, and never as more runnable goroutines than the host
		// has cores.
		meter.SetCategory(StepLocalMult)
		scanCols := colScanWork(bRecv)
		var plan *localmm.Plan
		var prod spmat.Matrix
		var loan localmm.Loan
		sec := p.measure(func() {
			plan = localmm.PlanMul(aRecv, bRecv)
			if lendStageProducts && (s > 0 || stages > 1 && !p.Opts.IncrementalMerge) {
				prod, loan = plan.MulLent(p.Opts.Kernel, p.Opts.Semiring, p.workers(plan.Flops))
			} else {
				prod = plan.Mul(p.Opts.Kernel, p.Opts.Semiring, p.workers(plan.Flops))
			}
		})
		res.LocalFlops += plan.Flops
		meter.AddComputeWork(sec, plan.Flops+bRecv.NNZ()+scanCols+1)
		consume(prod, loan)
	}
	tr.SetStage(-1)
}

// lendStageProducts is off only in core's own tests, for the reference a
// lending run must reproduce bit for bit: every stage product an owned copy.
var lendStageProducts = true

// stageProducts runs the stage loop and collects every stage's partial
// product (the non-incremental merge strategy's input) and the loans behind
// them, which the caller returns when its merges have read the products.
func (p *Proc) stageProducts(bBatch, bNextBatch spmat.Matrix, res *Result) (partial []spmat.Matrix, loans []localmm.Loan, unmerged int64) {
	partial, loans = make([]spmat.Matrix, 0, p.G.Q), make([]localmm.Loan, 0, p.G.Q)
	p.forEachStage(bBatch, bNextBatch, res, func(prod spmat.Matrix, loan localmm.Loan) {
		partial, loans = append(partial, prod), append(loans, loan)
		unmerged += prod.NNZ()
	})
	res.UnmergedNNZ += unmerged
	// Peak: inputs plus all unmerged stage products live simultaneously.
	p.trackPeak(res, p.LocalA.NNZ()+p.LocalB.NNZ()+unmerged)
	return partial, loans, unmerged
}

// returnLoans hands the stage products' chunks back to the kernels' free
// list; the products must not be read after it.
func returnLoans(loans []localmm.Loan) {
	for i := range loans {
		loans[i].Return()
	}
}

// emptyLike returns an empty rows×cols matrix in m's concrete format.
func emptyLike(m spmat.Matrix, rows, cols int32) spmat.Matrix {
	if m.Format() == spmat.FormatDCSC {
		return spmat.NewDCSC(rows, cols)
	}
	return spmat.New(rows, cols)
}

// summa2D executes Alg 1 on this rank's layer for one batch piece of B:
// q stages of broadcasts and local multiplies, then a single Merge-Layer
// (the paper merges once after all stages; see Sec. III-A). With
// Options.IncrementalMerge the stage products are folded into a running
// accumulator instead — lower peak memory, more merge work.
func (p *Proc) summa2D(bBatch, bNextBatch spmat.Matrix, res *Result) spmat.Matrix {
	if p.Opts.IncrementalMerge {
		return p.summa2DIncremental(bBatch, bNextBatch, res)
	}
	partial, loans, unmerged := p.stageProducts(bBatch, bNextBatch, res)

	// Merge-Layer (Alg 1 line 8). Output may stay unsorted: only the final
	// Merge-Fiber output must be sorted (Sec. IV-D) — unless this merge is
	// the last to hold the entries in a table (lastTable).
	meter := p.G.World.Meter()
	meter.SetCategory(StepMergeLayer)
	d, mergeSec := p.merge(partial, p.lastTable(), unmerged)
	returnLoans(loans)
	meter.AddComputeWork(mergeSec, unmerged+colScanWork(bBatch)+1)
	res.MergedLayerNNZ += d.NNZ()
	p.trackPeak(res, p.LocalA.NNZ()+p.LocalB.NNZ()+unmerged+d.NNZ())
	return d
}

// summa2DIncremental is the merge-per-stage variant: after each stage the
// product is merged into the accumulator, so at most one stage product and
// the accumulator are live simultaneously. The per-stage merge time joins
// the overlap credit through the ledger: in pipelined mode the next stage's
// broadcasts hide behind multiply and merge alike.
func (p *Proc) summa2DIncremental(bBatch, bNextBatch spmat.Matrix, res *Result) spmat.Matrix {
	g := p.G
	meter := g.World.Meter()
	var acc spmat.Matrix
	p.forEachStage(bBatch, bNextBatch, res, func(prod spmat.Matrix, loan localmm.Loan) {
		res.UnmergedNNZ += prod.NNZ()
		if acc == nil {
			acc = prod
			p.trackPeak(res, p.LocalA.NNZ()+p.LocalB.NNZ()+acc.NNZ())
			return
		}
		meter.SetCategory(StepMergeLayer)
		work := acc.NNZ() + prod.NNZ()
		p.trackPeak(res, p.LocalA.NNZ()+p.LocalB.NNZ()+work)
		merged, sec := p.merge([]spmat.Matrix{acc, prod}, false, work)
		loan.Return()
		meter.AddComputeWork(sec, work+1)
		acc = merged
	})
	if acc == nil {
		ar, _ := p.LocalA.Dims()
		_, bc := bBatch.Dims()
		acc = emptyLike(bBatch, ar, bc)
	}
	res.MergedLayerNNZ += acc.NNZ()
	p.trackPeak(res, p.LocalA.NNZ()+p.LocalB.NNZ()+acc.NNZ())
	return acc
}

// summa3DBatch executes one batch of Alg 2: per-layer 2D SUMMA, the fiber
// AllToAll, and the fiber merge. bBatch is this batch's piece of the local B
// (extracted by BatchedSUMMA3D); bNextBatch is the next batch's piece, or nil
// on the last batch, used by the pipelined schedule's cross-batch prefetch.
// Returns the local batch output (sorted) and the local column offsets
// (within this rank's block column) it covers.
func (p *Proc) summa3DBatch(t int, bBatch, bNextBatch spmat.Matrix, res *Result) (spmat.Matrix, []int32) {
	if p.Opts.Pipeline {
		return p.summa3DBatchOverlapped(t, bBatch, bNextBatch, res)
	}
	g := p.G
	meter := g.World.Meter()

	// Per-layer 2D multiply (Alg 2 line 3).
	d := p.summa2D(bBatch, nil, res)

	// ColSplit packing (Alg 2 line 4) is local merge-side work, so it is
	// metered as Merge-Layer compute; the category switches to the exchange's
	// step only at the collective itself, keeping packing time out of the
	// communication attribution.
	meter.SetCategory(StepMergeLayer)
	var pieces []spmat.Matrix
	packSec := p.measure(func() {
		pieces, _ = p.bt.SplitByLayerMat(d, t)
	})
	meter.AddComputeWork(packSec, d.NNZ()+int64(g.L)+1)
	send := make([]mpi.Payload, g.L)
	for m := 0; m < g.L; m++ {
		send[m] = pieces[m]
	}

	// AllToAll along the fiber (Alg 2 line 5).
	meter.SetCategory(StepAllToAll)
	recv := g.Fiber.AllToAllv(send)
	dRows, _ := d.Dims()
	return p.mergeFiber(t, dRows, recv, res)
}

// summa3DBatchOverlapped is summa3DBatch on the fully-overlapped schedule
// (Opts.Pipeline). Merge-Layer is partitioned by destination layer —
// per-column identical to merge-then-split, so the output does not change —
// which lets the fiber exchange (split into IalltoallvStart + WaitOverlap)
// be posted as soon as the remote destinations' shares are merged and
// complete while the own-layer share still runs: that merge time becomes
// overlap credit and the hidden share of the AllToAll cost is charged to
// StepAllToAllHidden.
func (p *Proc) summa3DBatchOverlapped(t int, bBatch, bNextBatch spmat.Matrix, res *Result) (spmat.Matrix, []int32) {
	g := p.G
	meter := g.World.Meter()
	led := &p.pipe.ledger

	if p.Opts.IncrementalMerge {
		// The accumulator is already fully merged, so no Merge-Layer work is
		// left to hide the exchange behind; the split exchange still runs so
		// any unclaimed compute since the post (none, in this schedule) could
		// be credited, and the cross-batch broadcast prefetch applies as in
		// the non-incremental variant.
		acc := p.summa2DIncremental(bBatch, bNextBatch, res)
		meter.SetCategory(StepMergeLayer)
		var pieces []spmat.Matrix
		packSec := p.measure(func() {
			pieces, _ = p.bt.SplitByLayerMat(acc, t)
		})
		meter.AddComputeWork(packSec, acc.NNZ()+int64(g.L)+1)
		send := make([]mpi.Payload, g.L)
		for m := 0; m < g.L; m++ {
			if m != g.K {
				send[m] = pieces[m]
			}
		}
		post := led.clock
		req := g.Fiber.IalltoallvStart(send)
		meter.SetCategory(StepAllToAll)
		recv, used := req.WaitOverlap(led.creditSince(post), StepAllToAllHidden)
		meter.Recorder().TagChannel(led.claim(post, used))
		recv[g.K] = pieces[g.K] // the own piece never travels
		accRows, _ := acc.Dims()
		return p.mergeFiber(t, accRows, recv, res)
	}

	partial, loans, unmerged := p.stageProducts(bBatch, bNextBatch, res)

	// Destination-partitioned Merge-Layer: split every stage product by
	// owning layer first (the ColSplit packing of Alg 2 line 4, charged as
	// Merge-Layer compute like in the staged schedule), then merge each
	// destination's stage pieces separately. Merging is column-independent,
	// so each merged piece is bit-identical to the corresponding column
	// selection of the staged schedule's single Merge-Layer output. The
	// pieces are views of the stage products, lent chunks included, so the
	// loans end with the last destination's merge.
	meter.SetCategory(StepMergeLayer)
	perDest := make([][]spmat.Matrix, g.L)
	packSec := p.measure(func() {
		for _, prod := range partial {
			pieces, _ := p.bt.SplitByLayerMat(prod, t)
			for m := 0; m < g.L; m++ {
				perDest[m] = append(perDest[m], pieces[m])
			}
		}
	})
	meter.AddComputeWork(packSec, unmerged+int64(g.L)+1)

	mergeDest := func(m int) spmat.Matrix {
		var in int64
		for _, piece := range perDest[m] {
			in += piece.NNZ()
		}
		out, sec := p.merge(perDest[m], p.lastTable(), in)
		meter.AddComputeWork(sec, in+colScanWork(out)+1)
		return out
	}

	// Remote destinations first, so the exchange posts as early as possible.
	send := make([]mpi.Payload, g.L)
	var mergedNNZ int64
	for m := 0; m < g.L; m++ {
		if m == g.K {
			continue
		}
		piece := mergeDest(m)
		send[m] = piece
		mergedNNZ += piece.NNZ()
	}
	post := led.clock
	req := g.Fiber.IalltoallvStart(send)

	// The own-layer share of Merge-Layer overlaps the in-flight exchange.
	own := mergeDest(g.K)
	returnLoans(loans)
	mergedNNZ += own.NNZ()
	res.MergedLayerNNZ += mergedNNZ
	p.trackPeak(res, p.LocalA.NNZ()+p.LocalB.NNZ()+unmerged+mergedNNZ)

	meter.SetCategory(StepAllToAll)
	recv, used := req.WaitOverlap(led.creditSince(post), StepAllToAllHidden)
	meter.Recorder().TagChannel(led.claim(post, used))
	recv[g.K] = own // the own piece never travels
	ownRows, _ := own.Dims()
	return p.mergeFiber(t, ownRows, recv, res)
}

// mergeFiber is Merge-Fiber (Alg 2 line 6), shared by the staged and
// overlapped schedules: the final output is sorted here and only here
// (Sec. IV-D). recv is indexed by source layer; nil entries carry nothing.
// Received pieces keep whatever format their source rank stored them in —
// under the auto heuristic the operands can mix formats — and the batch
// output keeps the merged format too: when every fiber payload is
// doubly-compressed the merge emits DCSC (localmm.MergeMat), so hypersparse
// batches never inflate to dense column pointers here — this was the last
// O(cols) scan on the DCSC path, and the work accounting now carries the
// same colScanWork term as every other merge (the dense column count for a
// CSC output, only the stored columns for DCSC). Conversion to the
// user-facing CSC happens once, at hook boundaries and final assembly
// (BatchedSUMMA3D).
func (p *Proc) mergeFiber(t int, rows int32, recv []mpi.Payload, res *Result) (spmat.Matrix, []int32) {
	g := p.G
	meter := g.World.Meter()
	meter.SetCategory(StepMergeFiber)
	mats := make([]spmat.Matrix, 0, g.L)
	var recvNNZ int64
	for _, r := range recv {
		if r == nil {
			continue
		}
		m := r.(spmat.Matrix)
		mats = append(mats, m)
		recvNNZ += m.NNZ()
	}
	var c spmat.Matrix
	var fiberSec float64
	if len(mats) == 0 {
		fiberSec = p.measure(func() { c = spmat.New(rows, 0) })
	} else {
		c, fiberSec = p.merge(mats, true, recvNNZ)
	}
	meter.AddComputeWork(fiberSec, recvNNZ+colScanWork(c)+1)
	p.trackPeak(res, p.LocalA.NNZ()+p.LocalB.NNZ()+recvNNZ+c.NNZ())
	return c, p.bt.BatchLayerCols(t, g.K)
}

// lastTable reports whether Merge-Layer is the last merge to hold a batch's
// entries in an accumulator. On a one-layer grid it is: Merge-Fiber then has
// the one operand Merge-Layer made, so Merge-Layer drains its table in
// ascending order — the sort happens while the entries are still in the table
// — and Merge-Fiber's sorted operand passes through (localmm.MergeMat). With
// more layers the fiber merge accumulates l pieces and sorts as it drains.
// Either way every output entry is sorted once; the meters charge both merges
// their schedule's work units regardless.
func (p *Proc) lastTable() bool { return p.G.L == 1 }

// merge is the engine's one call into localmm.MergeMat: Opts.Merger over mats
// on the workers entries input entries pay for, as one compute section whose
// wall seconds it returns. sorted asks for ascending columns. A lone unsorted
// operand of a sorted merge on a one-layer grid is a matrix this rank just
// produced and nobody else holds — p = 1's only stage product, the
// incremental accumulator — so it is sorted where it lies instead of on the
// copy MergeMat would make.
func (p *Proc) merge(mats []spmat.Matrix, sorted bool, entries int64) (out spmat.Matrix, sec float64) {
	sec = p.measure(func() {
		if sorted && len(mats) == 1 && p.G.L == 1 {
			mats[0].SortColumns()
		}
		out = localmm.MergeMat(p.Opts.Merger, mats, p.Opts.Semiring, sorted, p.workers(entries))
	})
	return out, sec
}

// trackPeak records a modeled memory checkpoint of live nonzeros.
func (p *Proc) trackPeak(res *Result, liveNNZ int64) {
	if mem := liveNNZ * p.Opts.BytesPerNnz; mem > res.PeakMemBytes {
		res.PeakMemBytes = mem
	}
}
