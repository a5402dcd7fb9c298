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
		post: p.ledger.clock,
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
	tr := p.G.World.Meter().Recorder()

	// Stage 0 may have been prefetched by the previous batch's last stage.
	cur := p.pipe.next
	if !p.pipe.hasNext {
		cur = p.postStageBcasts(0, bOperand)
	}
	p.pipe.hasNext = false
	for s := 0; s < stages; s++ {
		tr.SetStage(s)
		aRecv := p.waitBcast(cur.a, cur.post, aCat, aHidden).(spmat.Matrix)
		bRecv := p.waitBcast(cur.b, cur.post, bCat, bHidden).(spmat.Matrix)
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

// lendChunks is off only in core's own tests, for the reference a lending
// run must reproduce bit for bit: every stage product, Merge-Layer output and
// discarded batch an owned copy.
var lendChunks = true

// stageProducts runs the stage loop over bBatch and collects what each stage
// leaves for Merge-Layer: its plan, or its partial product and the loan behind
// it, which the caller returns once its merges have read the products. Under
// the staged schedule no stage makes a product: every stage only plans its
// multiply and hands the plan to Merge-Layer, which computes all q products
// straight out of the accumulator into the merge (layerMerge,
// localmm.MulMerge) and releases the plans. Under the pipelined schedule a
// stage's multiply is the compute that hides the next stage's broadcasts, so
// each stage but the last makes its product, and only the last stage's plan
// goes to Merge-Layer on a grid with q > 1. unmerged counts the entries of
// the products made here; Merge-Layer adds the planned stages'.
//
// Local multiply (Alg 1 line 7). One pass over the B block finds each B
// entry's A column and counts the stage's flops column by column
// (localmm.PlanMul), and everything that needs them reads that one plan —
// Result.LocalFlops, the work units and, inside the kernel, the worker
// balance and the hash-table sizes — which goes back to the kernels' free
// list inside the measured section (Plan.Release) of the stage or, for a
// planned stage, of Merge-Layer. Work units = flops plus the operand
// traversal cost, so empty products still carry their column-scan work — the
// dense column count for CSC operands, only the stored columns for DCSC (the
// O(n)-per-block term the compressed format removes from the modeled critical
// path); the unit accounting is deliberately kernel-independent so the
// modeled critical path never moves with the kernel knob, nor with where a
// stage's product is made: a planned stage's section here measures the plan
// alone, and its multiply is measured with Merge-Layer's, but its work units
// are charged here, as every stage's. The kernel runs one worker per core the
// section holds once the flops are known (Proc.workers) — Opts.Threads at
// most, fewer whenever other ranks need the cores or the stage is too small
// to pay for a worker — so intra-rank parallelism appears as shorter measured
// compute, the paper's 16-threads-per-process configuration, and never as
// more runnable goroutines than the host has cores.
//
// A stage product that is made — only the pipelined schedule makes one — is
// read by the Merge-Layer that follows and by nothing else. With q > 1 that
// merge accumulates the products into arrays of its own, so each is only
// lent (localmm.Plan.MulLent): its entries stay in the kernel worker's chunk
// until the loan is returned, right after Merge-Layer. With q = 1 the one
// product is the Merge-Layer output (a one-operand merge returns its
// operand), so it is lent exactly when that output is (lendLayer), and
// summa3DBatch hands its loan on with that output's. A product more than one
// worker made is an owned copy either way.
func (p *Proc) stageProducts(bBatch, bNextBatch spmat.Matrix, res *Result) (partial []spmat.Matrix, loans []localmm.Loan, plans []*localmm.Plan, unmerged int64) {
	meter := p.G.World.Meter()
	q := p.G.Q
	lend := lendChunks && (q > 1 || p.lendLayer())
	p.forEachStage(bBatch, bNextBatch, StepABcast, StepABcastHidden, StepBBcast, StepBBcastHidden, func(s int, aRecv, bRecv spmat.Matrix) {
		meter.SetCategory(StepLocalMult)
		scanCols := colScanWork(bRecv)
		var flops int64
		var prod spmat.Matrix
		var loan localmm.Loan
		sec := p.measure(func() {
			plan := localmm.PlanMul(aRecv, bRecv)
			flops = plan.Flops
			switch {
			case !p.Opts.Pipeline || q > 1 && s == q-1:
				plans = append(plans, plan)
				return
			case lend:
				prod, loan = plan.MulLent(p.Opts.Kernel, p.Opts.Semiring, p.workers(flops))
			default:
				prod = plan.Mul(p.Opts.Kernel, p.Opts.Semiring, p.workers(flops))
			}
			plan.Release()
		})
		res.LocalFlops += flops
		meter.AddComputeWork(sec, flops+bRecv.NNZ()+scanCols+1)
		if prod != nil {
			partial, loans = append(partial, prod), append(loans, loan)
			unmerged += prod.NNZ()
		}
	})
	return partial, loans, plans, unmerged
}

// returnLoans hands lent outputs' chunks back to the kernels' free list; the
// outputs must not be read after it.
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
//   - Staged: merge the stages' products once — all q computed inside that
//     merge from their plans, none of them written — then split the merged
//     output by owning layer and post. Nothing is measured between post and
//     wait, so the exchange's credit is zero and it meters exactly like the
//     blocking AllToAllv.
//   - Pipelined: split every stage product by owning layer first, merge each
//     destination's pieces separately — merging is column-independent, so each
//     merged piece is bit-identical to the staged output's column selection —
//     and post as soon as the remote destinations are merged. The own-layer
//     merge then runs while the exchange is in flight: its time is overlap
//     credit and the hidden share of the AllToAll cost is charged to
//     StepAllToAllHidden. The split's work units count every stage product's
//     entries, so they are charged after the merges, which count the last
//     one's.
//
// Either way the own piece never travels. "The stage products" are the
// products stageProducts made (pipelined stages but the last, or the one
// stage at q = 1) and the plans of the rest (every stage when staged, the
// last on a pipelined grid with q > 1): each merge is one fused pass
// (layerMerge) that computes its window of every planned product, column by
// column in stage order, and merges the made products' window with them, so
// Merge-Layer's sections time those multiplies too and a planned stage's
// Local-Multiply section times its plan alone. Every work unit, peak
// checkpoint, flop and entry count is what it was with the products made
// first.
//
// Merge-Layer's output is lent whenever its last reader is known (lendLayer).
// With l > 1 it is read by this rank's Merge-Fiber and, through the
// by-reference exchange, by the l − 1 fiber peers' — the pieces are views of
// it — so its loans outlive the batch by one exchange. They are returned after
// the next batch's exchange is posted: IalltoallvStart returns only once every
// fiber peer has posted, and a peer posts batch t+1 only after finishing batch
// t. The last batch's stay in Proc.lent for the launcher (launch) to return
// once the world has ended. With l = 1 there are no peers, and Merge-Fiber
// passes the output through as the batch output; it is lent only when the
// rank discards the batch (Proc.discard). The returned loans are the batch
// output's, Merge-Layer's on one layer and Merge-Fiber's on more, which the
// caller returns once the hook has read a discarded batch.
func (p *Proc) summa3DBatch(t int, bBatch, bNextBatch spmat.Matrix, res *Result) (spmat.Matrix, []localmm.Loan, []int32) {
	g := p.G
	meter := g.World.Meter()
	led := &p.ledger
	partial, loans, plans, unmerged := p.stageProducts(bBatch, bNextBatch, res)

	// Merge-Layer (Alg 1 line 8). Output may stay unsorted: only the final
	// Merge-Fiber output must be sorted (Sec. IV-D) — unless this merge is the
	// last to hold the entries in a table (lastTable).
	meter.SetCategory(StepMergeLayer)
	send := make([]mpi.Payload, g.L)
	var own spmat.Matrix
	var merged int64
	var post float64
	var req *mpi.AllToAllvRequest
	lent := make([]localmm.Loan, 0, g.L)
	_, width := bBatch.Dims()
	if !p.Opts.Pipeline {
		// Every stage only planned (partial is empty): the one pass makes
		// all q products.
		d, loan, planned, mergeSec := p.layerMerge(partial, plans, 0, width, unmerged, true)
		unmerged += planned
		lent = append(lent, loan)
		meter.AddComputeWork(mergeSec, unmerged+colScanWork(bBatch)+1)
		var pieces []spmat.Matrix
		packSec := p.measure(func() {
			pieces = spmat.MatColRanges(d, p.bt.LayerBounds(t))
		})
		meter.AddComputeWork(packSec, d.NNZ()+int64(g.L)+1)
		for m, piece := range pieces {
			send[m] = piece
		}
		own, send[g.K], merged = pieces[g.K], nil, d.NNZ()
		post, req = led.clock, g.Fiber.IalltoallvStart(send)
	} else {
		// The pieces are views of the stage products, lent chunks included;
		// the last stage's product (q > 1) is made per destination, by the
		// merge.
		perDest := make([][]spmat.Matrix, g.L)
		bounds := p.bt.LayerBounds(t)
		packSec := p.measure(func() {
			for _, prod := range partial {
				pieces := spmat.MatColRanges(prod, bounds)
				for m := range perDest {
					perDest[m] = append(perDest[m], pieces[m])
				}
			}
		})
		mergeDest := func(m int) spmat.Matrix {
			var in int64
			for _, piece := range perDest[m] {
				in += piece.NNZ()
			}
			out, loan, planned, sec := p.layerMerge(perDest[m], plans, bounds[m], bounds[m+1], in, m == g.K)
			in += planned
			unmerged += planned
			lent = append(lent, loan)
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
		// The split's work counts every stage product's entries, the last
		// one's included, which only the merges above have counted.
		meter.AddComputeWork(packSec, unmerged+int64(g.L)+1)
		// Every merge that reads the stage products is done. With q = 1 the
		// one stage product is Merge-Layer's output, so its loan joins that
		// output's.
		if g.Q == 1 {
			lent = append(lent, loans...)
		} else {
			returnLoans(loans)
		}
	}
	res.UnmergedNNZ += unmerged
	// Peak: inputs plus all unmerged stage products live simultaneously.
	p.trackPeak(res, p.LocalA.NNZ()+p.LocalB.NNZ()+unmerged)
	// Every fiber peer has posted this batch's exchange, so none reads the
	// previous batch's Merge-Layer outputs any more. With one layer there are
	// no peers: this batch's go out with the batch output Merge-Fiber passes
	// them through as.
	var batchLoans []localmm.Loan
	if g.L > 1 {
		returnLoans(p.lent)
		p.lent = lent
	} else {
		batchLoans = lent
	}
	res.MergedLayerNNZ += merged
	p.trackPeak(res, p.LocalA.NNZ()+p.LocalB.NNZ()+unmerged+merged)

	// AllToAll along the fiber (Alg 2 line 5).
	meter.SetCategory(StepAllToAll)
	recv, used := req.WaitOverlap(led.creditSince(post), StepAllToAllHidden)
	meter.Recorder().TagChannel(led.claim(post, used))
	recv[g.K] = own
	c, loan := p.mergeFiber(recv, res)
	g.Fiber.PutRecv(recv)
	return c, append(batchLoans, loan), p.bt.BatchLayerCols(t, g.K)
}

// lendLayer reports whether Merge-Layer's output is lent: whether its last
// reader is known. It is with l > 1, where the fiber peers read it through the
// exchange, and when the rank discards its batches, whose last reader is the
// hook.
func (p *Proc) lendLayer() bool { return p.G.L > 1 || p.discard }

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
// final assembly (BatchedSUMMA3D). A batch the rank discards is lent; on a
// one-layer grid the lone operand passes through and the loan is empty.
func (p *Proc) mergeFiber(recv []mpi.Payload, res *Result) (spmat.Matrix, localmm.Loan) {
	meter := p.G.World.Meter()
	meter.SetCategory(StepMergeFiber)
	mats := make([]spmat.Matrix, len(recv))
	var recvNNZ int64
	for k, r := range recv {
		mats[k] = r.(spmat.Matrix)
		recvNNZ += mats[k].NNZ()
	}
	c, loan, fiberSec := p.merge(mats, true, p.discard, recvNNZ)
	meter.AddComputeWork(fiberSec, recvNNZ+colScanWork(c)+1)
	p.trackPeak(res, p.LocalA.NNZ()+p.LocalB.NNZ()+recvNNZ+c.NNZ())
	return c, loan
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

// merge is the engine's one call into localmm's merge: Opts.Merger over mats
// on the workers entries input entries pay for, as one compute section whose
// wall seconds it returns. sorted asks for ascending columns; lend asks for
// the output on loan (localmm.MergeLent), which the caller returns once its
// last reader is done. A lone unsorted operand of a sorted merge on a
// one-layer grid is a matrix this rank just produced and nobody else holds —
// a pipelined p = 1 run's only stage product — so it is sorted where it lies
// instead of on the copy MergeMat would make.
func (p *Proc) merge(mats []spmat.Matrix, sorted, lend bool, entries int64) (out spmat.Matrix, loan localmm.Loan, sec float64) {
	sec = p.measure(func() {
		if sorted && len(mats) == 1 && p.G.L == 1 {
			mats[0].SortColumns()
		}
		if lend && lendChunks {
			out, loan = localmm.MergeLent(p.Opts.Merger, mats, p.Opts.Semiring, sorted, p.workers(entries))
		} else {
			out = localmm.MergeMat(p.Opts.Merger, mats, p.Opts.Semiring, sorted, p.workers(entries))
		}
	})
	return out, loan, sec
}

// layerMerge is one Merge-Layer merge over the columns [lo, hi) of the batch:
// of the earlier stage products' windows prev and the windows of the planned
// stages' products, which plans compute inside the merge
// (localmm.MulMerge) and which never materialize — the plans are released in
// the same measured section once release says this is their last window.
// With no plan (the pipelined schedule at q = 1) prev is the one stage
// product's window, merged as it is. entries is prev's; planned is the
// planned windows' entry count, which the caller's work units add. Sorting
// and lending are Merge-Layer's (lastTable, lendLayer).
func (p *Proc) layerMerge(prev []spmat.Matrix, plans []*localmm.Plan, lo, hi int32, entries int64, release bool) (out spmat.Matrix, loan localmm.Loan, planned int64, sec float64) {
	if len(plans) == 0 {
		out, loan, sec = p.merge(prev, p.lastTable(), p.lendLayer(), entries)
		return out, loan, 0, sec
	}
	o := &p.Opts
	sec = p.measure(func() {
		work := entries
		for _, pl := range plans {
			work += pl.WindowFlops(lo, hi)
		}
		out, loan, planned = localmm.MulMerge(o.Kernel, o.Merger, prev, plans, lo, hi, o.Semiring, p.lastTable(), p.lendLayer() && lendChunks, p.workers(work))
		if release {
			for _, pl := range plans {
				pl.Release()
			}
		}
	})
	return out, loan, planned, sec
}

// trackPeak records a modeled memory checkpoint of live nonzeros.
func (p *Proc) trackPeak(res *Result, liveNNZ int64) {
	if mem := liveNNZ * spmat.BytesPerNonzero; mem > res.PeakMemBytes {
		res.PeakMemBytes = mem
	}
}
