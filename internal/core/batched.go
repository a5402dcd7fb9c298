package core

import (
	"fmt"

	"repro/internal/distmat"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// BatchedSUMMA3D executes Algorithm 4: the integrated communication-avoiding
// and memory-constrained SpGEMM. The symbolic step (Alg 3) picks the batch
// count unless Options.ForceBatches overrides it; the local B is then split
// block-cyclically into b batches and each batch runs a full 3D SUMMA
// (per-layer 2D SUMMA, fiber AllToAll, fiber merge). The hook, when not nil,
// sees every finished batch and may prune it before it joins the rank's
// Result — this is how applications keep the output from ever materializing
// at full size.
//
// Every rank of the grid must call BatchedSUMMA3D collectively.
func (p *Proc) BatchedSUMMA3D(hook BatchHook) (*Result, error) {
	g := p.G
	res := &Result{RowOffset: p.DA.RowB[g.I]}
	p.pipe = pipeState{}
	p.ledger = overlapLedger{k: p.Opts.Channels}
	p.resetSparseComm()

	// Decide the batch count (Alg 4 line 2).
	b := p.Opts.ForceBatches
	runSymbolic := p.Opts.RunSymbolic || b <= 0
	if runSymbolic {
		sb, _, err := p.Symbolic3D()
		if err != nil {
			return nil, err
		}
		res.SymbolicB = sb
		if b <= 0 {
			b = sb
		}
	}
	if b < 1 {
		b = 1
	}
	// More batches than the widest block column only creates empty batches;
	// clamp to keep loops meaningful.
	if w := p.widestBlock(); b > w && w > 0 {
		b = w
	}
	res.Batches = b

	// All ranks must agree on b. With ForceBatches they trivially do; the
	// symbolic estimate is computed from Allreduce'd maxima so it also
	// agrees. Assert anyway: a divergent b would deadlock the collectives.
	if agreed := g.World.AllreduceInt64(int64(b), mpi.OpMax); int(agreed) != b {
		return nil, fmt.Errorf("core: ranks disagree on batch count (%d vs %d)", b, agreed)
	}

	// Arm the sparse A-broadcast path. The symbolic pass recorded every
	// stage's column subset as a byproduct of its B broadcasts; when it was
	// skipped, one Allgather along the process column fills them instead.
	// Activation is collective: every rank shares Opts.SparseComm and
	// runSymbolic, so they flip together.
	if p.sc.supports != nil {
		if !runSymbolic {
			p.gatherSupports()
		}
		p.sc.active = true
	}

	// Column batching of this rank's block column (Alg 4 line 4, Fig 1(i)).
	c0, c1 := p.DB.ColRangeOf(g.J)
	p.bt = distmat.NewBatching(c1-c0, b, g.L)

	// Alg 4 lines 5–6: one 3D SUMMA per batch. With Opts.Pipeline the
	// batch-piece extraction is hoisted one batch ahead of the multiply: the
	// pipelined schedule posts batch t+1's first broadcasts during batch t's
	// last stage, and the column roots need the extracted piece as the send
	// buffer by then. The staged schedule keeps the old one-piece-at-a-time
	// footprint and extracts lazily. Extraction is metered under the
	// StepExtract aux category and runs through the overlap ledger: between
	// batches the t+1 extraction executes while batch t+1's prefetched
	// stage-0 broadcasts are already in flight, so its measured compute is
	// genuine hiding credit instead of serialized schedule time.
	meter := g.World.Meter()
	tr := meter.Recorder()
	extract := func(t int) spmat.Matrix {
		// Extraction prepares batch t, so its spans carry t's label even when
		// the pipelined schedule hoists it into batch t-1's stage loop.
		tr.SetBatch(t)
		meter.SetCategory(StepExtract)
		// A single batch is the whole block column: the stages broadcast
		// LocalB itself (blocks are shared read-only) and nothing is copied.
		piece := p.LocalB
		sec := p.measure(func() {
			if b > 1 {
				piece = spmat.MatColSelect(p.LocalB, p.bt.BatchCols(t))
			}
		})
		meter.AddComputeWork(sec, piece.NNZ()+int64(p.bt.BatchWidth(t))+1)
		return piece
	}
	res.Pieces = make([]spmat.Matrix, 0, b)
	bCur := extract(0)
	for t := 0; t < b; t++ {
		var bNext spmat.Matrix
		if p.Opts.Pipeline && t+1 < b {
			bNext = extract(t + 1)
		}
		tr.SetBatch(t)
		cPiece, loans, offsets := p.summa3DBatch(t, bCur, bNext, res)
		switch {
		case bNext != nil:
			bCur = bNext
		case t+1 < b:
			bCur = extract(t + 1)
		}
		res.BatchNNZ = append(res.BatchNNZ, cPiece.NNZ())
		globalCols := make([]int32, len(offsets))
		for x, o := range offsets {
			globalCols[x] = c0 + o
		}
		if hook != nil {
			// Hooks see the user-facing CSC form; a hypersparse piece is
			// inflated only at this boundary (and only when a hook exists).
			// A piece the hook hands back is kept as it is, so it must cover
			// the same rows and columns: every reader of the pieces places
			// them by RowOffset and GlobalCols alone.
			csc := cPiece.ToCSC()
			if pruned := hook(t, globalCols, csc); pruned != nil {
				if pruned.Cols != csc.Cols {
					return nil, fmt.Errorf("core: batch hook changed column count (%d → %d)", csc.Cols, pruned.Cols)
				}
				if pruned.Rows != csc.Rows {
					return nil, fmt.Errorf("core: batch hook changed row count (%d → %d)", csc.Rows, pruned.Rows)
				}
				cPiece = pruned
			}
		}
		if p.discard {
			// The hook has read the batch: drop it — the piece left in its
			// place stores no column, not even a column pointer — and hand
			// back the chunks it was lent.
			r, c := cPiece.Dims()
			cPiece = spmat.NewDCSC(r, c)
			returnLoans(loans)
		}
		res.Pieces = append(res.Pieces, cPiece)
		res.GlobalCols = append(res.GlobalCols, globalCols...)
	}

	// Alg 4 line 7: the batches, in batch-major column order, are the rank's
	// output, kept as the pieces Merge-Fiber made; whoever assembles or
	// streams the product reads them in place (AssembleResults,
	// ProductSegments). The step is still charged its O(nnz) work, under the
	// StepAssemble aux category on the overlap ledger like every other local
	// compute, so the modeled critical path stays the gate's.
	tr.SetBatch(-1)
	meter.SetCategory(StepAssemble)
	var totalNNZ int64
	assembleSec := p.measure(func() { totalNNZ = res.NNZ() })
	meter.AddComputeWork(assembleSec, totalNNZ+int64(len(res.Pieces))+1)
	return res, nil
}

// widestBlock returns the widest B block column across the grid (they differ
// by at most one column).
func (p *Proc) widestBlock() int {
	w := 0
	for j := 0; j < p.G.Q; j++ {
		c0, c1 := p.DB.ColRangeOf(j)
		if int(c1-c0) > w {
			w = int(c1 - c0)
		}
	}
	return w
}
