package planner

import (
	"math"

	"repro/internal/mpi"
	"repro/internal/spmat"
)

// Step names, matching the paper's legends. They are the core package's
// meter categories too: core defines its Step constants from these.
const (
	StepSymbolic   = "Symbolic"
	StepABcast     = "A-Broadcast"
	StepBBcast     = "B-Broadcast"
	StepLocalMult  = "Local-Multiply"
	StepMergeLayer = "Merge-Layer"
	StepAllToAll   = "AllToAll-Fiber"
	StepMergeFiber = "Merge-Fiber"
)

// Steps lists the seven step names in presentation order.
var Steps = []string{
	StepSymbolic, StepABcast, StepBBcast, StepLocalMult,
	StepMergeLayer, StepAllToAll, StepMergeFiber,
}

// Config is one point of the configuration space the planner ranks.
type Config struct {
	// L is the layer count; B the batch count.
	L, B int
	// Format is the in-memory block storage knob.
	Format spmat.Format
	// Pipeline selects the fully-overlapped schedule.
	Pipeline bool
	// SparseComm selects the column-subset A-broadcast path; the zero value
	// (off) models the historical full-block broadcasts.
	SparseComm mpi.SparseMode
	// Channels is k, the pipelined schedule's modeled NIC channel count.
	// Zero and one both mean the single-injection ledger (the zero value
	// keeps pre-knob configs comparable and their spellings unchanged);
	// only k ≥ 2 is ever recorded.
	Channels int
}

// String renders the config the way reports and flags spell it. The
// sparse-comm and channel suffixes appear only when the knobs are set, so
// pre-knob spellings are unchanged.
func (c Config) String() string {
	sched := "staged"
	if c.Pipeline {
		sched = "pipelined"
	}
	s := "l=" + itoa(c.L) + " b=" + itoa(c.B) + " " + c.Format.String() + " " + sched
	if c.SparseComm != mpi.SparseOff {
		s += " sparse=" + c.SparseComm.String()
	}
	if c.Channels >= 2 {
		s += " k=" + itoa(c.Channels)
	}
	return s
}

// StepCost is one step's predicted cost.
type StepCost struct {
	// Step names the paper step.
	Step string
	// CommSeconds is the predicted exposed modeled communication on the
	// critical-path rank.
	CommSeconds float64
	// HiddenSeconds is the communication the overlap-ledger model predicts
	// the pipelined schedule hides behind compute (zero when staged).
	HiddenSeconds float64
	// WorkUnits is the predicted total abstract local work across all ranks
	// (flops, scanned nonzeros, merged entries — the meters' accounting).
	WorkUnits int64
}

// Candidate is one fully-evaluated configuration.
type Candidate struct {
	Config
	// Steps is the per-step breakdown, in Steps order.
	Steps []StepCost
	// CommSeconds, HiddenSeconds, and WorkUnits aggregate the breakdown.
	CommSeconds   float64
	HiddenSeconds float64
	WorkUnits     int64
	// ModelSeconds is the ranking objective: exposed comm plus
	// WorkUnits·DefaultSecPerWork — the same deterministic metric the CI perf
	// gate scores.
	ModelSeconds float64
	// PeakMemBytesPerRank is the predicted per-rank memory high-water mark
	// under the flat r·nnz accounting the runtime's trackPeak uses.
	PeakMemBytesPerRank int64
	// Feasible is false when the configuration cannot run under the memory
	// budget (Note says why).
	Feasible bool
	// Note carries the infeasibility reason, if any.
	Note string
}

// Step returns the named step's cost (zero value if absent).
func (c *Candidate) Step(name string) StepCost {
	for _, s := range c.Steps {
		if s.Step == name {
			return s
		}
	}
	return StepCost{}
}

// predict evaluates one (l, format, sparse) point of the space: it derives
// the induced batch count (unless forceB pins one), predicts every step, and
// returns the staged candidate. Pipelined variants are derived from it with
// applyOverlap.
func (pl *Plan) predict(gs *gridStat, format spmat.Format, forceB int, sparse mpi.SparseMode) Candidate {
	in, pr := pl.In, pl.Probe
	q, l := gs.q, gs.l
	p := in.P
	const r = spmat.BytesPerNonzero
	cm := mpi.CostModel{AlphaSec: in.Machine.AlphaSec, BetaSecPerByte: in.Machine.BetaSecPerByte}
	cs := in.Machine.CommScale

	// blockFormat resolves the per-block storage: forced, or the auto
	// heuristic on the block's own occupancy (the same Hypersparse test the
	// runtime applies).
	blockFormat := func(ne int64, cols int32) spmat.Format {
		switch format {
		case spmat.FormatCSC, spmat.FormatDCSC:
			return format
		default:
			if spmat.Hypersparse(ne, cols) {
				return spmat.FormatDCSC
			}
			return spmat.FormatCSC
		}
	}

	// Exact per-rank input footprint maxima (the symbolic decision's memA,
	// memB terms) and nnz maxima (the flat peak-memory accounting).
	var maxMemA, maxMemB, maxNnzA, maxNnzB int64
	for idx := range gs.aNNZ {
		cols := gs.aCols[idx%(q*l)]
		if m := spmat.MemBytesModel(blockFormat(gs.aNE[idx], cols), gs.aNNZ[idx], gs.aNE[idx], r); m > maxMemA {
			maxMemA = m
		}
		if gs.aNNZ[idx] > maxNnzA {
			maxNnzA = gs.aNNZ[idx]
		}
	}
	for idx := range gs.bNNZ {
		cols := gs.bCols[(idx/gs.l)%q]
		if m := spmat.MemBytesModel(blockFormat(gs.bNE[idx], cols), gs.bNNZ[idx], gs.bNE[idx], r); m > maxMemB {
			maxMemB = m
		}
		if gs.bNNZ[idx] > maxNnzB {
			maxNnzB = gs.bNNZ[idx]
		}
	}

	cand := Candidate{
		Config:   Config{L: l, Format: format, SparseComm: sparse},
		Feasible: true,
	}

	// Output-side volumes from the probe's weighted slice model: the
	// unmerged intermediate of the q·l (stage, layer) slices and the merged
	// per-layer outputs, with the heaviest layer's shares so the
	// critical-path rank (power-law hubs make layers unequal) is predicted,
	// not just the mean. Format-independent, memoized on the grid.
	gs.sliceModel(pr)
	unmergedQL, unmergedL := gs.uQL, gs.uL
	maxLayerQL, maxLayerL := gs.maxLayerQL, gs.maxLayerL

	// Batch decision (Alg 3 line 12, mirrored): b = ⌈r·maxnnzC / (M/p −
	// (memA + memB))⌉ with maxnnzC the per-rank maximum unmerged
	// intermediate — the heaviest layer's share over its q² ranks, scaled
	// by the within-layer imbalance factor. Feasibility follows the same
	// model the decision does (the paper's: inputs plus the per-batch
	// unmerged intermediate must fit), so an induced b is feasible by
	// construction and a forced one is checked against the same inequality.
	b := forceB
	maxnnzC := DefaultImbalance * maxLayerQL / float64(q*q)
	avail := math.Inf(1)
	if in.MemBytes > 0 {
		avail = float64(in.MemBytes)/float64(p) - float64(maxMemA+maxMemB)
		if avail <= 0 {
			cand.Feasible = false
			cand.Note = "inputs alone exceed the per-process budget"
			cand.B = 1
			if b > 0 {
				cand.B = b
			}
			return cand
		}
	}
	if b <= 0 {
		b = 1
		if in.MemBytes > 0 {
			b = int(math.Ceil(float64(r) * maxnnzC / avail))
			if b < 1 {
				b = 1
			}
		}
	}
	cand.B = b
	if float64(r)*maxnnzC/float64(b) > avail {
		cand.Feasible = false
		cand.Note = "the unmerged intermediate does not fit in " + itoa(b) + " batches"
	}

	// Wire sizes. wireA is exact per block; a B batch piece is modeled as an
	// even 1/b share of its block's entries, occupied columns, and width
	// (the block-cyclic deal spreads all three near-evenly).
	wireA := func(i, s, k int) int64 {
		idx := gs.blockIdx(i, s, k)
		return spmat.WireBytesFor(gs.aCols[s*l+k], gs.aNE[idx], gs.aNNZ[idx])
	}
	wireBFull := func(i, j, k int) int64 {
		idx := gs.blockIdx(i, j, k)
		return spmat.WireBytesFor(gs.bCols[j], gs.bNE[idx], gs.bNNZ[idx])
	}
	wireBPiece := func(i, j, k int) int64 { // one batch piece (1/b of a block)
		idx := gs.blockIdx(i, j, k)
		ne, nnz := gs.bNE[idx], gs.bNNZ[idx]
		cols := int32(int(gs.bCols[j]) / b)
		if cols < 1 {
			cols = 1
		}
		return spmat.WireBytesFor(cols, (ne+int64(b)-1)/int64(b), (nnz+int64(b)-1)/int64(b))
	}

	// Per-rank broadcast sums: every rank of a process row pays the full
	// Bcast cost of each stage, so the critical path is the worst (i, k) row
	// of A and the worst (j, k) column of B.
	var maxABcast, maxBBcast, maxBBcastFull float64
	for k := 0; k < l; k++ {
		for i := 0; i < q; i++ {
			var sum float64
			for s := 0; s < q; s++ {
				sum += cm.BcastCost(q, wireA(i, s, k))
			}
			if sum > maxABcast {
				maxABcast = sum
			}
		}
		for j := 0; j < q; j++ {
			var piece, full float64
			for s := 0; s < q; s++ {
				piece += cm.BcastCost(q, wireBPiece(s, j, k))
				full += cm.BcastCost(q, wireBFull(s, j, k))
			}
			if piece > maxBBcast {
				maxBBcast = piece
			}
			if full > maxBBcastFull {
				maxBBcastFull = full
			}
		}
	}

	// Column-scan work: the per-multiply operand-traversal term — the dense
	// column count for CSC blocks, stored columns for DCSC (what the
	// compressed format removes from the modeled critical path).
	var colScanFull, colScanPieces int64 // Σ over B blocks; pieces sum over batches
	for idx := range gs.bNNZ {
		j := (idx / gs.l) % q
		cols := gs.bCols[j]
		if blockFormat(gs.bNE[idx], cols) == spmat.FormatCSC {
			colScanFull += int64(cols)
			colScanPieces += int64(cols) // b pieces of cols/b each
		} else {
			colScanFull += gs.bNE[idx]
			colScanPieces += gs.bNE[idx]
		}
	}

	p64, q64, l64, b64 := int64(p), int64(q), int64(l), int64(b)
	steps := make([]StepCost, 0, len(Steps))

	// Symbolic (Alg 3): the same q broadcast stages as one un-batched SUMMA
	// pass — full A and B blocks, charged to Symbolic — plus the three
	// footprint Allreduces and the batch-agreement Allreduce, and the
	// symbolic kernel's work.
	if in.Symbolic {
		comm := cs * (maxABcast + maxBBcastFull + 4*cm.AllreduceCost(p, 8))
		work := pr.Flops + q64*pr.NnzB + q64*colScanFull + p64*q64
		steps = append(steps, StepCost{Step: StepSymbolic, CommSeconds: comm, WorkUnits: work})
	} else {
		steps = append(steps, StepCost{Step: StepSymbolic})
	}

	// A-Broadcast: each batch re-broadcasts every A block (the cost of
	// batching), so the per-rank sum scales with b. Under a sparse mode the
	// per-rank charge is replicated exactly — per stage the same subset
	// decision and root/receiver split mpi.IbcastColsStart applies, plus the
	// fallback support Allgather when the symbolic pass is skipped — so the
	// prediction stays byte-exact against the meters.
	abcastComm := cs * float64(b) * maxABcast
	if sparse != mpi.SparseOff && q > 1 {
		abcastComm = cs * pl.sparseABcast(gs, cm, b, sparse == mpi.SparseOn, wireA)
	}
	steps = append(steps, StepCost{Step: StepABcast, CommSeconds: abcastComm})

	// B-Broadcast: each stage moves one batch piece; over all batches every
	// B entry travels exactly once, so b only changes the latency share.
	steps = append(steps, StepCost{Step: StepBBcast, CommSeconds: cs * float64(b) * maxBBcast})

	// Local-Multiply: total flops plus the operand traversal of every
	// received piece (q ranks per process column receive each piece).
	steps = append(steps, StepCost{Step: StepLocalMult,
		WorkUnits: pr.Flops + q64*pr.NnzB + q64*colScanPieces + p64*q64*b64})

	// Merge-Layer: merging the per-stage partial products (the unmerged
	// intermediate of the q·l inner slices) plus the batch piece traversal,
	// plus the destination packing of the merged per-layer outputs.
	mergeWork := int64(unmergedQL) + colScanPieces + p64*b64 + // merge pass
		int64(unmergedL) + p64*b64*(l64+1) // ColSplit packing
	steps = append(steps, StepCost{Step: StepMergeLayer, WorkUnits: mergeWork})

	// AllToAll-Fiber: per batch each rank ships the remote (l−1)/l share of
	// its merged per-layer output along the fiber. The metered step is the
	// max-over-ranks cost, so the critical rank sits on the heaviest layer
	// (maxLayerL, not the mean) and on the heaviest (row, column) output
	// block (the sampled output imbalance).
	var fiberComm float64
	if l > 1 {
		perRankBatch := gs.outImbalance * maxLayerL / float64(int64(q*q)*b64)
		pieceNNZ := int64(perRankBatch / float64(l))
		pieceCols := int32(int64(pr.ColsB) / (q64 * b64 * l64))
		if pieceCols < 1 {
			pieceCols = 1
		}
		pieceNE := pieceNNZ
		if int64(pieceCols) < pieceNE {
			pieceNE = int64(pieceCols)
		}
		sent := (l64 - 1) * spmat.WireBytesFor(pieceCols, pieceNE, pieceNNZ)
		fiberComm = cs * float64(b) * cm.AllToAllCost(l, sent)
	}
	steps = append(steps, StepCost{Step: StepAllToAll, CommSeconds: fiberComm})

	// Merge-Fiber: every merged per-layer entry is merged once more at its
	// destination rank, plus the merged piece's column scan. A CSC piece
	// scans its dense width — Σ over ranks and batches is exactly q·cols(j)
	// per column block (the batch∩layer shares partition the block column
	// and q process rows each hold one piece). A doubly-compressed piece
	// scans only its occupied columns — Σ over ranks is the occupied
	// (row block, column) cell count of C, estimated from the sampled
	// output structure. A column block stays doubly compressed through the
	// merge exactly when every B̃(·,j,·) block feeding it is DCSC (products
	// and layer splits inherit the B operand's format).
	var fiberScan int64
	var dcscFiberCols float64
	for j := 0; j < q; j++ {
		allDCSC := true
		for s := 0; s < q && allDCSC; s++ {
			for k := 0; k < l; k++ {
				idx := gs.blockIdx(s, j, k)
				if gs.bNNZ[idx] == 0 {
					continue
				}
				if blockFormat(gs.bNE[idx], gs.bCols[j]) != spmat.FormatDCSC {
					allDCSC = false
					break
				}
			}
		}
		if allDCSC {
			dcscFiberCols += float64(gs.bCols[j])
		} else {
			fiberScan += q64 * int64(gs.bCols[j])
		}
	}
	if dcscFiberCols > 0 && pr.ColsB > 0 {
		fiberScan += int64(gs.fiberCells * dcscFiberCols / float64(pr.ColsB))
	}
	steps = append(steps, StepCost{Step: StepMergeFiber, WorkUnits: int64(unmergedL) + fiberScan + p64*b64})

	cand.Steps = steps
	for _, s := range steps {
		cand.CommSeconds += s.CommSeconds
		cand.WorkUnits += s.WorkUnits
	}
	cand.ModelSeconds = cand.CommSeconds + float64(cand.WorkUnits)*DefaultSecPerWork

	// Peak memory under the runtime's flat accounting: inputs plus the
	// unmerged stage products plus the merged layer output per batch, on
	// the heaviest layer's ranks. Informational — the feasibility gate
	// above is Alg 3's own inequality, which (like the paper's model)
	// excludes the merged output being streamed out.
	peakNNZ := float64(maxNnzA+maxNnzB) + DefaultImbalance*(maxLayerQL+maxLayerL)/float64(int64(q*q)*b64)
	cand.PeakMemBytesPerRank = int64(peakNNZ * float64(r))
	return cand
}

// Overlap is the deterministic overlap-ledger model shared by the planner's
// pipeline predictions and the oracle's scoring of pipelined configurations:
// given a staged schedule's per-step costs, it bounds how much communication
// the fully-overlapped schedule hides. Each prefetched collective can hide
// behind at most the compute of the window it spans (the ledger grants each
// compute second to one request), so per window the hidden share is
// min(window comm, window compute).
type Overlap struct {
	// Q, B, L are the grid stages, batches, and layers.
	Q, B, L int
	// K is the modeled NIC channel count (core Options.Channels). Zero and
	// one are the single-injection model: the A- and B-broadcasts of a
	// stage share one hiding budget. With K ≥ 2 each stream claims its own
	// channel, so both hide independently behind the same compute window —
	// exactly what the runtime's per-channel claim ledger grants.
	K int
	// Symbolic marks whether the symbolic pass runs (and prefetches).
	Symbolic bool
	// CommSymbolicBcast is the broadcast share of the symbolic step's comm
	// (its Allreduces stay blocking); CommABcast etc. are the staged per-rank
	// step costs.
	CommSymbolicBcast, CommABcast, CommBBcast, CommFiber float64
	// CompSymbolic etc. are per-rank compute seconds of the hiding steps.
	CompSymbolic, CompMultiply, CompMergeLayer float64
}

// Hidden returns the predicted hidden communication per step: symbolic
// broadcasts behind the symbolic kernel, A/B broadcasts behind the previous
// stage's multiply (the first stage of the first batch has nothing to hide
// behind), and the fiber exchange behind the own-layer 1/L share of
// Merge-Layer.
func (o Overlap) Hidden() (sym, a, b, fiber float64) {
	if o.Symbolic && o.Q > 1 {
		per := o.CommSymbolicBcast / float64(o.Q)
		comp := o.CompSymbolic / float64(o.Q)
		sym = float64(o.Q-1) * minf(per, comp)
	}
	stages := o.B * o.Q
	if stages > 1 {
		perComp := o.CompMultiply / float64(stages)
		if o.K >= 2 {
			// Two or more channels: the A and B streams each hide up to
			// the full stage window, independently.
			a = float64(stages-1) * minf(o.CommABcast/float64(stages), perComp)
			b = float64(stages-1) * minf(o.CommBBcast/float64(stages), perComp)
		} else {
			perComm := (o.CommABcast + o.CommBBcast) / float64(stages)
			hidden := float64(stages-1) * minf(perComm, perComp)
			if tot := o.CommABcast + o.CommBBcast; tot > 0 {
				a = hidden * o.CommABcast / tot
				b = hidden * o.CommBBcast / tot
			}
		}
	}
	if o.L > 1 && o.B > 0 {
		perComm := o.CommFiber / float64(o.B)
		ownMerge := o.CompMergeLayer / float64(o.B*o.L)
		fiber = float64(o.B) * minf(perComm, ownMerge)
	}
	return sym, a, b, fiber
}

// applyOverlap derives the pipelined variant of a staged candidate under k
// overlap channels: the overlap-ledger model moves the hideable share of each
// collective into HiddenSeconds, with per-rank compute valued at
// DefaultSecPerWork over the candidate's own work predictions. k ≤ 1 is the
// single-injection model and leaves Config.Channels at its zero value
// (pre-knob spelling).
func (pl *Plan) applyOverlap(staged Candidate, k int) Candidate {
	p := float64(pl.In.P)
	perRank := func(step string) float64 {
		return float64(staged.Step(step).WorkUnits) * DefaultSecPerWork / p
	}
	// The symbolic step's four Allreduces stay blocking in the pipelined
	// schedule; only the broadcast share is hideable.
	symBcast := staged.Step(StepSymbolic).CommSeconds - pl.AllreduceShare()
	if symBcast < 0 {
		symBcast = 0
	}
	o := Overlap{
		Q: pl.qFor(staged.L), B: staged.B, L: staged.L, K: k,
		Symbolic:          pl.In.Symbolic,
		CommSymbolicBcast: symBcast,
		CommABcast:        staged.Step(StepABcast).CommSeconds,
		CommBBcast:        staged.Step(StepBBcast).CommSeconds,
		CommFiber:         staged.Step(StepAllToAll).CommSeconds,
		CompSymbolic:      perRank(StepSymbolic),
		CompMultiply:      perRank(StepLocalMult),
		CompMergeLayer:    perRank(StepMergeLayer),
	}
	hSym, hA, hB, hFiber := o.Hidden()

	out := staged
	out.Pipeline = true
	if k >= 2 {
		out.Channels = k
	}
	out.Steps = append([]StepCost(nil), staged.Steps...)
	hide := map[string]float64{
		StepSymbolic: hSym, StepABcast: hA, StepBBcast: hB, StepAllToAll: hFiber,
	}
	out.CommSeconds, out.HiddenSeconds = 0, 0
	for i := range out.Steps {
		h := hide[out.Steps[i].Step]
		if h > out.Steps[i].CommSeconds {
			h = out.Steps[i].CommSeconds
		}
		out.Steps[i].CommSeconds -= h
		out.Steps[i].HiddenSeconds = h
		out.CommSeconds += out.Steps[i].CommSeconds
		out.HiddenSeconds += out.Steps[i].HiddenSeconds
	}
	out.ModelSeconds = out.CommSeconds + float64(out.WorkUnits)*DefaultSecPerWork
	return out
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
