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
// the meter; cost attribution happens when forEachStage waits on them. bOperand is this rank's B piece to contribute when it
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

// forEachStage is the one stage loop of the engine: the q broadcast stages of
// Alg 1 (numeric, over a batch piece of B) or Alg 3 (symbolic, over the whole
// local B). Every stage's broadcasts are charged to aCat/bCat, and body runs
// with the stage index and the two received blocks. Compute in body runs
// through Proc.measure, so it joins the ledger as overlap credit: a wait
// hides the share of the broadcast's modeled cost that the unclaimed compute
// measured since the post covers (zero in the staged schedule), charging it
// to aHidden/bHidden. The A and B broadcasts of a stage drain the same
// window — a stage's compute can only hide that much communication, no matter
// how it is split between them.
//
// Staged and pipelined differ here in one place: when the next stage is
// posted. Without Opts.Pipeline stage s+1 is posted after stage s's body and
// waited on at once, metering exactly the paper's staged schedule (an
// IbcastStart + Wait pair charges identically to the blocking Bcast). With it
// the loop prefetches in two directions. Within the batch, stage s+1's
// broadcasts are posted before stage s's body runs, so their modeled cost can
// hide behind its measured compute. Across batches, the last stage posts the
// NEXT batch's stage-0 broadcasts (operand bNext, extracted ahead of time by
// BatchedSUMMA3D; nil on the last batch and in the symbolic pass) before its
// own body, so batch t+1's first broadcasts hide behind batch t's final
// multiply, its merges, and its fiber exchange.
func (p *Proc) forEachStage(bOperand, bNext spmat.Matrix, aCat, aHidden, bCat, bHidden string, body func(s int, aRecv, bRecv spmat.Matrix)) {
	stages := p.G.Q
	pipe := p.Opts.Pipeline
	meter := p.G.World.Meter()
	tr := meter.Recorder()
	led := &p.pipe.ledger
	wait := func(req *mpi.BcastRequest, post float64, cat, hidden string) spmat.Matrix {
		meter.SetCategory(cat)
		pay, used := req.WaitOverlap(led.creditSince(post), hidden)
		tr.TagChannel(led.claim(post, used))
		return pay.(spmat.Matrix)
	}

	// Stage 0 may have been prefetched by the previous batch's last stage.
	cur := p.pipe.next
	if !p.pipe.hasNext {
		cur = p.postStageBcasts(0, bOperand)
	}
	p.pipe.hasNext = false
	for s := 0; s < stages; s++ {
		tr.SetStage(s)
		aRecv, bRecv := wait(cur.a, cur.post, aCat, aHidden), wait(cur.b, cur.post, bCat, bHidden)
		switch {
		case pipe && s+1 < stages:
			cur = p.postStageBcasts(s+1, bOperand)
		case pipe && bNext != nil:
			p.pipe.next, p.pipe.hasNext = p.postStageBcasts(0, bNext), true
		}
		body(s, aRecv, bRecv)
		if !pipe && s+1 < stages {
			cur = p.postStageBcasts(s+1, bOperand)
		}
	}
	tr.SetStage(-1)
}

// lendStageProducts is off only in core's own tests, for the reference a
// lending run must reproduce bit for bit: every stage product an owned copy.
var lendStageProducts = true

// stageProducts runs the stage loop over bBatch and collects every stage's
// partial product and the loan behind it, which the caller returns once its
// merges have read the products.
//
// Local multiply (Alg 1 line 7). One pass over the B block counts the stage's
// flops column by column (localmm.PlanMul) and everything that needs them
// reads that one vector: Result.LocalFlops, the work units and, inside the
// kernel, the worker balance and the hash-table sizes. Work units = flops
// plus the operand traversal cost, so empty products still carry their
// column-scan work — the dense column count for CSC operands, only the stored
// columns for DCSC (the O(n)-per-block term the compressed format removes
// from the modeled critical path); the unit accounting is deliberately
// kernel-independent so the modeled critical path never moves with the
// kernel knob. The kernel runs one worker per core the section holds once the
// flops are known (Proc.workers) — Opts.Threads at most, fewer whenever other
// ranks need the cores or the stage is too small to pay for a worker — so
// intra-rank parallelism appears as shorter measured compute, the paper's
// 16-threads-per-process configuration, and never as more runnable
// goroutines than the host has cores.
//
// A stage product is read by the Merge-Layer that follows and by nothing
// else. With q > 1 that merge accumulates the products into arrays of its own,
// so each product is only lent (localmm.Plan.MulLent): its entries stay in the
// kernel worker's chunk until the loan is returned. With q = 1 the one product
// is the Merge-Layer output (a one-operand merge returns its operand) and
// goes on to the fiber exchange or out of the batch, so it is an owned copy,
// as is any product more than one worker made.
func (p *Proc) stageProducts(bBatch, bNextBatch spmat.Matrix, res *Result) (partial []spmat.Matrix, loans []localmm.Loan, unmerged int64) {
	meter := p.G.World.Meter()
	lend := lendStageProducts && p.G.Q > 1
	partial, loans = make([]spmat.Matrix, 0, p.G.Q), make([]localmm.Loan, 0, p.G.Q)
	p.forEachStage(bBatch, bNextBatch, StepABcast, StepABcastHidden, StepBBcast, StepBBcastHidden, func(_ int, aRecv, bRecv spmat.Matrix) {
		meter.SetCategory(StepLocalMult)
		scanCols := colScanWork(bRecv)
		var plan *localmm.Plan
		var prod spmat.Matrix
		var loan localmm.Loan
		sec := p.measure(func() {
			plan = localmm.PlanMul(aRecv, bRecv)
			if lend {
				prod, loan = plan.MulLent(p.Opts.Kernel, p.Opts.Semiring, p.workers(plan.Flops))
			} else {
				prod = plan.Mul(p.Opts.Kernel, p.Opts.Semiring, p.workers(plan.Flops))
			}
		})
		res.LocalFlops += plan.Flops
		meter.AddComputeWork(sec, plan.Flops+bRecv.NNZ()+scanCols+1)
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

// summa3DBatch executes one batch of Alg 2: the per-layer 2D SUMMA (Alg 1),
// one Merge-Layer (the paper merges once after all stages; see Sec. III-A),
// the fiber AllToAll, and the fiber merge. bBatch is this batch's piece of
// the local B (extracted by BatchedSUMMA3D); bNextBatch is the next batch's
// piece, or nil on the last batch, used by the pipelined schedule's
// cross-batch prefetch. Returns the local batch output (sorted) and the local
// column offsets (within this rank's block column) it covers.
//
// The ColSplit packing of Alg 2 line 4 is local merge-side work, so it is
// metered as Merge-Layer compute; the category switches to the exchange's step
// only at its wait. The schedules order Merge-Layer against the exchange post
// in two ways and share everything after the post:
//
//   - Staged: merge the stage products once, then split the merged output by
//     owning layer and post. Nothing is measured between post and wait, so the
//     exchange's credit is zero and it meters exactly like the blocking
//     AllToAllv.
//   - Pipelined: split every stage product by owning layer first, merge each
//     destination's pieces separately — merging is column-independent, so each
//     merged piece is bit-identical to the staged output's column selection —
//     and post as soon as the remote destinations are merged. The own-layer
//     merge then runs while the exchange is in flight: its time is overlap
//     credit and the hidden share of the AllToAll cost is charged to
//     StepAllToAllHidden.
//
// Either way the own piece never travels.
func (p *Proc) summa3DBatch(t int, bBatch, bNextBatch spmat.Matrix, res *Result) (spmat.Matrix, []int32) {
	g := p.G
	meter := g.World.Meter()
	led := &p.pipe.ledger
	partial, loans, unmerged := p.stageProducts(bBatch, bNextBatch, res)

	// Merge-Layer (Alg 1 line 8). Output may stay unsorted: only the final
	// Merge-Fiber output must be sorted (Sec. IV-D) — unless this merge is the
	// last to hold the entries in a table (lastTable).
	meter.SetCategory(StepMergeLayer)
	send := make([]mpi.Payload, g.L)
	var own spmat.Matrix
	var merged int64
	var post float64
	var req *mpi.AllToAllvRequest
	if !p.Opts.Pipeline {
		d, mergeSec := p.merge(partial, p.lastTable(), unmerged)
		meter.AddComputeWork(mergeSec, unmerged+colScanWork(bBatch)+1)
		var pieces []spmat.Matrix
		packSec := p.measure(func() {
			pieces, _ = p.bt.SplitByLayerMat(d, t)
		})
		meter.AddComputeWork(packSec, d.NNZ()+int64(g.L)+1)
		for m, piece := range pieces {
			send[m] = piece
		}
		own, send[g.K], merged = pieces[g.K], nil, d.NNZ()
		post, req = led.clock, g.Fiber.IalltoallvStart(send)
	} else {
		// The pieces are views of the stage products, lent chunks included.
		perDest := make([][]spmat.Matrix, g.L)
		packSec := p.measure(func() {
			for _, prod := range partial {
				pieces, _ := p.bt.SplitByLayerMat(prod, t)
				for m := range perDest {
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
			merged += out.NNZ()
			return out
		}
		for m := range send {
			if m != g.K {
				send[m] = mergeDest(m)
			}
		}
		post, req = led.clock, g.Fiber.IalltoallvStart(send)
		own = mergeDest(g.K)
	}
	// Every merge that reads the stage products is done.
	returnLoans(loans)
	res.MergedLayerNNZ += merged
	p.trackPeak(res, p.LocalA.NNZ()+p.LocalB.NNZ()+unmerged+merged)

	// AllToAll along the fiber (Alg 2 line 5).
	meter.SetCategory(StepAllToAll)
	recv, used := req.WaitOverlap(led.creditSince(post), StepAllToAllHidden)
	meter.Recorder().TagChannel(led.claim(post, used))
	recv[g.K] = own
	return p.mergeFiber(t, recv, res)
}

// mergeFiber is Merge-Fiber (Alg 2 line 6): the final output is sorted here
// and only here (Sec. IV-D). recv holds one piece per source layer, the own
// piece included. Received pieces keep whatever format their source rank
// stored them in — under the auto heuristic the operands can mix formats —
// and the batch output keeps the merged format too: when every fiber payload
// is doubly-compressed the merge emits DCSC (localmm.MergeMat), so hypersparse
// batches never inflate to dense column pointers here, and the work
// accounting carries the same colScanWork term as every other merge (the
// dense column count for a CSC output, only the stored columns for DCSC).
// Conversion to the user-facing CSC happens once, at hook boundaries and
// final assembly (BatchedSUMMA3D).
func (p *Proc) mergeFiber(t int, recv []mpi.Payload, res *Result) (spmat.Matrix, []int32) {
	meter := p.G.World.Meter()
	meter.SetCategory(StepMergeFiber)
	mats := make([]spmat.Matrix, len(recv))
	var recvNNZ int64
	for k, r := range recv {
		mats[k] = r.(spmat.Matrix)
		recvNNZ += mats[k].NNZ()
	}
	c, fiberSec := p.merge(mats, true, recvNNZ)
	meter.AddComputeWork(fiberSec, recvNNZ+colScanWork(c)+1)
	p.trackPeak(res, p.LocalA.NNZ()+p.LocalB.NNZ()+recvNNZ+c.NNZ())
	return c, p.bt.BatchLayerCols(t, p.G.K)
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
// produced and nobody else holds — p = 1's only stage product — so it is
// sorted where it lies instead of on the copy MergeMat would make.
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
