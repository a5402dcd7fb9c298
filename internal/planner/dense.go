package planner

import (
	"fmt"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// This file is the sparse×dense planner: it ranks the algorithm families the
// runtime's MultiplyDense can execute — 2D/3D SUMMA over a densified panel,
// 1.5D ColA, and 1.5D InnerABC — across replication factors, batch counts,
// and schedules. The 1.5D predictions mirror core's schedules collective for
// collective (skew/fiber broadcasts, ring shifts, fiber allgather-reduce)
// with exact per-block wire sizes, so they are testable against real meters;
// the SUMMA arm delegates to the sparse planner on an all-ones pattern of
// the panel, which is exactly what core.MultiplyDense's SUMMA arm executes.
//
// The ranking objective models iterated SpMM: each candidate's cost is split
// into OneTimeSeconds (replication of the stationary operand, paid once per
// matrix) and PerIterSeconds (shifts, reduction, compute, paid every
// iteration), and ModelSeconds = one-time + Iterations × per-iteration. With
// Iterations = 1 the split is a no-op; as it grows, candidates that amortize
// replication (InnerABC replicates sparse A once and then moves only dense
// panels) overtake candidates that re-move the sparse matrix every pass.

// Algo is the distributed algorithm family of a sparse×dense run. The
// sparse×sparse path is always 3D SUMMA (2D is its l = 1 case); the
// sparse×dense path adds the 1.5D family of Koanantakool et al., where the
// replication factor trades memory for communication and a different operand
// moves per variant.
type Algo int

const (
	// AlgoSUMMA is the paper's 2D/3D SUMMA schedule — the zero value. For a
	// dense operand it runs the panel's densified pattern through the sparse
	// pipeline.
	AlgoSUMMA Algo = iota
	// AlgoColA is 1.5D ColA: A is block-column partitioned and rotates
	// around each layer's ring; B and C are column-panel partitioned and
	// stationary, replicated across layers; C partials reduce over the fiber.
	AlgoColA
	// AlgoInnerABC is 1.5D InnerABC: A is block-row partitioned and
	// stationary (replicated across layers, one-time); B is block-row
	// partitioned and rotates; C partials reduce over the fiber.
	AlgoInnerABC
)

// Algos lists the algorithm axis in enumeration order, which is also the
// ranking's tie-break order.
var Algos = []Algo{AlgoSUMMA, AlgoColA, AlgoInnerABC}

// String returns the spelling ParseAlgo accepts.
func (a Algo) String() string {
	switch a {
	case AlgoSUMMA:
		return "summa"
	case AlgoColA:
		return "cola"
	case AlgoInnerABC:
		return "innerabc"
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// ParseAlgo parses an algorithm family's spelling (summa | cola | innerabc).
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "summa", "":
		return AlgoSUMMA, nil
	case "cola":
		return AlgoColA, nil
	case "innerabc", "inner":
		return AlgoInnerABC, nil
	}
	return 0, fmt.Errorf("planner: unknown algorithm %q (want summa | cola | innerabc)", s)
}

// DenseInput configures a sparse×dense planning run.
type DenseInput struct {
	// P is the total rank count. Required.
	P int
	// Iterations is how many times the SpMM will run with the same sparse
	// matrix (an iterative solver's passes). One-time replication cost is
	// amortized over it. 0 means 1.
	Iterations int
	// MemBytes is the aggregate memory budget M (0 = unconstrained, which
	// induces b = 1 everywhere).
	MemBytes int64
	// Machine supplies α, β, and the communication scale factor.
	Machine costmodel.Machine
}

func (in DenseInput) withDefaults() DenseInput {
	if in.Iterations < 1 {
		in.Iterations = 1
	}
	if in.Machine.Name == "" {
		in.Machine = costmodel.CoriKNL()
	}
	return in
}

// DenseConfig is one point of the sparse×dense configuration space, and the
// whole description of a sparse×dense run: core.MultiplyDense executes
// exactly what it names.
type DenseConfig struct {
	// Algo is the algorithm family.
	Algo Algo
	// L is the SUMMA layer count (unused by the 1.5D algorithms).
	L int
	// C is the 1.5D replication factor, c² | p (unused by SUMMA).
	C int
	// B is the batch count, clamped by the runtime to what the panel's
	// width allows. Below 1 it means one batch on the 1.5D schedules and the
	// symbolic step's choice on the SUMMA arm.
	B int
	// Pipeline selects the overlapped schedule.
	Pipeline bool
}

// String renders the config the way reports and flags spell it.
func (c DenseConfig) String() string {
	sched := "staged"
	if c.Pipeline {
		sched = "pipelined"
	}
	if c.Algo == AlgoSUMMA {
		return c.Algo.String() + " l=" + itoa(c.L) + " b=" + itoa(c.B) + " " + sched
	}
	return c.Algo.String() + " c=" + itoa(c.C) + " b=" + itoa(c.B) + " " + sched
}

// DenseCandidate is one fully-evaluated sparse×dense configuration.
type DenseCandidate struct {
	DenseConfig
	// Steps is the per-step breakdown of a single run (one-time plus one
	// iteration), in Steps order.
	Steps []StepCost
	// OneTimeSeconds is the modeled cost paid once per sparse matrix: the
	// replication broadcasts of the stationary operand (plus InnerABC's
	// one-time column split). PerIterSeconds is everything paid per
	// iteration: shifts, reduction, and compute.
	OneTimeSeconds float64
	PerIterSeconds float64
	// CommSeconds, HiddenSeconds, WorkUnits aggregate the single-run Steps.
	CommSeconds   float64
	HiddenSeconds float64
	WorkUnits     int64
	// ModelSeconds is the ranking objective:
	// OneTimeSeconds + Iterations·PerIterSeconds.
	ModelSeconds float64
	// PeakMemBytesPerRank is the predicted per-rank memory high-water mark.
	PeakMemBytesPerRank int64
	// Feasible is false when the configuration cannot run under the budget.
	Feasible bool
	// Note carries the infeasibility reason, if any.
	Note string
}

// DensePlan is the ranked outcome of a sparse×dense planning run.
type DensePlan struct {
	// In echoes the (defaulted) inputs.
	In DenseInput
	// D is the dense panel width the plan was made for.
	D int32
	// Candidates holds every evaluated configuration, best first.
	Candidates []DenseCandidate
	// SUMMA is the sparse plan behind the densified arm (nil when the panel
	// was too large to densify for planning).
	SUMMA *Plan

	a     *spmat.CSC
	stats map[int]*denseStats
}

// ReplicationsFor returns every replication factor c for which p ranks form
// a valid 1.5D grid (c² | p), ascending. c = 1 (the pure ring algorithm) is
// always included.
func ReplicationsFor(p int) []int {
	var out []int
	for c := 1; c <= p; c++ {
		if grid.Valid15(p, c) == nil {
			out = append(out, c)
		}
	}
	return out
}

// densifyLimit caps the pattern the SUMMA arm may materialize: beyond this
// many entries the arm is skipped with a note instead of burning planning
// time on a matrix the runtime would not want to densify anyway.
const densifyLimit = 1 << 24

// NewDense evaluates the sparse×dense configuration space for C = A·B where
// B is a dense n×d panel — every algorithm of Algos, the 1.5D ones at
// every replication factor ReplicationsFor gives, staged and pipelined —
// returning the ranked plan. Deterministic, like New.
func NewDense(a *spmat.CSC, d int32, in DenseInput) (*DensePlan, error) {
	in = in.withDefaults()
	if in.P <= 0 {
		return nil, fmt.Errorf("planner: rank count %d", in.P)
	}
	if d < 0 {
		return nil, fmt.Errorf("planner: dense width %d", d)
	}
	pl := &DensePlan{In: in, D: d, a: a, stats: make(map[int]*denseStats)}
	for _, algo := range Algos {
		if algo == AlgoSUMMA {
			pl.addSUMMA(a, d)
			continue
		}
		for _, c := range ReplicationsFor(in.P) {
			staged := pl.predict15(algo, c, 0, false)
			pl.Candidates = append(pl.Candidates, staged)
			if staged.Feasible {
				pl.Candidates = append(pl.Candidates, pl.predict15(algo, c, staged.B, true))
			}
		}
	}
	sort.SliceStable(pl.Candidates, func(x, y int) bool {
		cx, cy := &pl.Candidates[x], &pl.Candidates[y]
		if cx.Feasible != cy.Feasible {
			return cx.Feasible
		}
		if cx.ModelSeconds != cy.ModelSeconds {
			return cx.ModelSeconds < cy.ModelSeconds
		}
		if cx.Algo != cy.Algo {
			return cx.Algo < cy.Algo
		}
		if cx.C != cy.C {
			return cx.C < cy.C
		}
		if cx.B != cy.B {
			return cx.B < cy.B
		}
		return !cx.Pipeline && cy.Pipeline
	})
	return pl, nil
}

// Best returns the top-ranked feasible candidate, or nil.
func (pl *DensePlan) Best() *DenseCandidate {
	if len(pl.Candidates) == 0 || !pl.Candidates[0].Feasible {
		return nil
	}
	return &pl.Candidates[0]
}

// addSUMMA runs the sparse planner on the densified panel pattern and adopts
// two of its candidates as the SUMMA arm: the best staged one and the best
// pipelined one among those core.MultiplyDense's SUMMA arm executes — sparse
// communication off and a single overlap channel. Keeping a staged candidate
// beside the pipelined one lets a caller that runs staged schedules only take
// the first staged candidate of the ranking.
func (pl *DensePlan) addSUMMA(a *spmat.CSC, d int32) {
	in := pl.In
	if int64(a.Cols)*int64(d) > densifyLimit {
		pl.Candidates = append(pl.Candidates, DenseCandidate{
			DenseConfig: DenseConfig{Algo: AlgoSUMMA, L: 1, B: 1},
			Feasible:    false,
			Note:        "panel too large to densify for planning",
		})
		return
	}
	sp, err := New(a, denseOnesCSC(a.Cols, d), Input{P: in.P, MemBytes: in.MemBytes, Machine: in.Machine})
	if err != nil {
		pl.Candidates = append(pl.Candidates, DenseCandidate{
			DenseConfig: DenseConfig{Algo: AlgoSUMMA, L: 1, B: 1},
			Feasible:    false,
			Note:        "sparse planner: " + err.Error(),
		})
		return
	}
	pl.SUMMA = sp
	taken := map[bool]bool{} // by schedule: staged, pipelined
	for _, c := range sp.Candidates {
		if c.SparseComm == mpi.SparseOff && c.Channels <= 1 && !taken[c.Pipeline] {
			taken[c.Pipeline] = true
			pl.Candidates = append(pl.Candidates, pl.wrapSUMMA(c))
		}
	}
}

// wrapSUMMA maps a sparse-planner candidate onto the dense axis. SUMMA has
// no amortizable one-time share in the runtime — it re-broadcasts the sparse
// matrix every pass — so the whole cost is per-iteration.
func (pl *DensePlan) wrapSUMMA(sc Candidate) DenseCandidate {
	return DenseCandidate{
		DenseConfig:         DenseConfig{Algo: AlgoSUMMA, L: sc.L, B: sc.B, Pipeline: sc.Pipeline},
		Steps:               sc.Steps,
		PerIterSeconds:      sc.ModelSeconds,
		CommSeconds:         sc.CommSeconds,
		HiddenSeconds:       sc.HiddenSeconds,
		WorkUnits:           sc.WorkUnits,
		ModelSeconds:        float64(pl.In.Iterations) * sc.ModelSeconds,
		PeakMemBytesPerRank: sc.PeakMemBytesPerRank,
		Feasible:            sc.Feasible,
		Note:                sc.Note,
	}
}

// denseOnesCSC builds the all-ones pattern the runtime's ToCSC of a dense
// panel produces (every column full).
func denseOnesCSC(rows, cols int32) *spmat.CSC {
	nnz := int64(rows) * int64(cols)
	m := &spmat.CSC{
		Rows: rows, Cols: cols,
		ColPtr:     make([]int64, cols+1),
		RowIdx:     make([]int32, nnz),
		Val:        make([]float64, nnz),
		SortedCols: true,
	}
	for j := int32(0); j < cols; j++ {
		m.ColPtr[j+1] = int64(j+1) * int64(rows)
		base := int64(j) * int64(rows)
		for i := int32(0); i < rows; i++ {
			m.RowIdx[base+int64(i)] = i
			m.Val[base+int64(i)] = 1
		}
	}
	return m
}

// denseStats holds the exact per-block statistics of A on an s-position ring:
// block-columns (the ColA moving operand / InnerABC inner blocks) and
// block-rows (the InnerABC stationary operand).
type denseStats struct {
	s                    int
	colBounds, rowBounds []int32
	colNNZ, colNE        []int64
	colWire              []int64
	rowNNZ, rowNE        []int64
	rowWire              []int64
}

func (pl *DensePlan) statsFor(s int) *denseStats {
	if st, ok := pl.stats[s]; ok {
		return st
	}
	a := pl.a
	st := &denseStats{
		s:         s,
		colBounds: spmat.PartBounds(a.Cols, s),
		rowBounds: spmat.PartBounds(a.Rows, s),
		colNNZ:    make([]int64, s), colNE: make([]int64, s), colWire: make([]int64, s),
		rowNNZ: make([]int64, s), rowNE: make([]int64, s), rowWire: make([]int64, s),
	}
	for i := 0; i < s; i++ {
		lo, hi := st.colBounds[i], st.colBounds[i+1]
		st.colNNZ[i] = a.ColPtr[hi] - a.ColPtr[lo]
		for j := lo; j < hi; j++ {
			if a.ColPtr[j+1] > a.ColPtr[j] {
				st.colNE[i]++
			}
		}
		st.colWire[i] = spmat.WireBytesFor(hi-lo, st.colNE[i], st.colNNZ[i])
	}
	// Row-block nnz and occupied-column counts in one pass: a column is
	// occupied in row block i when it has at least one entry there.
	stamp := make([]int32, s)
	for j := int32(0); j < a.Cols; j++ {
		for e := a.ColPtr[j]; e < a.ColPtr[j+1]; e++ {
			blk := partIndex(st.rowBounds, a.RowIdx[e])
			st.rowNNZ[blk]++
			if stamp[blk] != j+1 {
				stamp[blk] = j + 1
				st.rowNE[blk]++
			}
		}
	}
	for i := 0; i < s; i++ {
		st.rowWire[i] = spmat.WireBytesFor(a.Cols, st.rowNE[i], st.rowNNZ[i])
	}
	pl.stats[s] = st
	return st
}

// boundsMaxWidth returns the widest part of a PartBounds split.
func boundsMaxWidth(b []int32) int32 {
	var w int32
	for i := 0; i+1 < len(b); i++ {
		if d := b[i+1] - b[i]; d > w {
			w = d
		}
	}
	return w
}

// memModel15 is the flat footprint of a sparse block under the auto format
// heuristic — the same spmat.MemBytesModel accounting the runtime's
// MemBytes() reports.
func memModel15(cols int32, ne, nnz int64) int64 {
	f := spmat.FormatCSC
	if spmat.Hypersparse(ne, cols) {
		f = spmat.FormatDCSC
	}
	return spmat.MemBytesModel(f, nnz, ne, spmat.BytesPerNonzero)
}

// predict15 evaluates one 1.5D configuration. forceB ≤ 0 induces the batch
// count from the memory budget; pipe derives the overlapped schedule. The
// comm terms replay the runtime's collectives per rank and take the maximum
// — the same per-step critical-path aggregation mpi.Summarize reports.
func (pl *DensePlan) predict15(algo Algo, c, forceB int, pipe bool) DenseCandidate {
	in := pl.In
	a := pl.a
	p := in.P
	s := p / c
	R := s / c
	st := pl.statsFor(s)
	cm := mpi.CostModel{AlphaSec: in.Machine.AlphaSec, BetaSecPerByte: in.Machine.BetaSecPerByte}
	cs := in.Machine.CommScale
	const rate = DefaultSecPerWork
	d := pl.D
	nnz := a.ColPtr[a.Cols]

	// Shapes the memory model needs.
	var maxBlkMem int64 // ColA: widest A block-column footprint
	for i := 0; i < s; i++ {
		if m := memModel15(st.colBounds[i+1]-st.colBounds[i], st.colNE[i], st.colNNZ[i]); m > maxBlkMem {
			maxBlkMem = m
		}
	}
	var maxRowMem int64 // InnerABC: heaviest A block-row footprint
	for i := 0; i < s; i++ {
		if m := memModel15(a.Cols, st.rowNE[i], st.rowNNZ[i]); m > maxRowMem {
			maxRowMem = m
		}
	}
	dBounds := spmat.PartBounds(d, s)
	maxPanelW := boundsMaxWidth(dBounds)         // ColA: widest B/C column panel
	maxInnerRows := boundsMaxWidth(st.colBounds) // InnerABC: tallest B block
	maxRowsJ := boundsMaxWidth(st.rowBounds)     // InnerABC: tallest C panel

	mul := int64(1)
	if pipe && R > 1 {
		mul = 2 // the posted shift keeps two moving blocks live
	}
	peakFor := func(b int) int64 {
		var live, reduce int64
		switch algo {
		case AlgoColA:
			piece := (maxPanelW + int32(b) - 1) / int32(b)
			acc := spmat.DenseMemBytes(a.Rows, piece)
			live = mul*maxBlkMem + spmat.DenseMemBytes(a.Rows, maxPanelW) + acc
			reduce = int64(c+2) * acc
		default: // InnerABC
			piece := (d + int32(b) - 1) / int32(b)
			acc := spmat.DenseMemBytes(maxRowsJ, piece)
			live = maxRowMem + mul*spmat.DenseMemBytes(maxInnerRows, piece) + acc
			reduce = int64(c+2) * acc
		}
		if reduce > live && c > 1 {
			return reduce
		}
		return live
	}

	cand := DenseCandidate{
		DenseConfig: DenseConfig{Algo: algo, C: c, Pipeline: pipe},
		Feasible:    true,
	}

	// Batch decision: the smallest b whose modeled peak fits the per-rank
	// share of the budget. The runtime only obeys ForceBatches, so the
	// planner is the authority here.
	maxB := int(d)
	if maxB < 1 {
		maxB = 1
	}
	b := forceB
	if b <= 0 {
		b = 1
		if in.MemBytes > 0 {
			budget := in.MemBytes / int64(p)
			for b < maxB && peakFor(b) > budget {
				b++
			}
		}
	}
	cand.B = b
	cand.PeakMemBytesPerRank = peakFor(b)
	if in.MemBytes > 0 && cand.PeakMemBytesPerRank > in.MemBytes/int64(p) {
		cand.Feasible = false
		cand.Note = "modeled peak does not fit the per-process budget in " + itoa(b) + " batches"
	}

	// Per-rank communication walks, exactly the runtime's collectives.
	agCost := func(wire int64) float64 { // fiber allgather of one dense partial
		if c <= 1 {
			return 0
		}
		return cm.AllreduceCost(c, 0) + cm.BetaSecPerByte*float64(int64(c)*wire)
	}
	// maxAStep/maxBStep track the per-rank *sums* the meters aggregate (max
	// over ranks of each rank's step total); the component maxima feed the
	// one-time split and the overlap model.
	var maxOneA, maxShiftRound, maxShiftB, maxOneB, maxAStep, maxBStep, maxFiber float64
	for k := 0; k < c; k++ {
		for j := 0; j < s; j++ {
			start := (j + k*R) % s
			switch algo {
			case AlgoColA:
				oneA := cs * cm.BcastCost(c, st.colWire[start])
				var round float64
				for r := 1; r < R; r++ {
					round += cm.ShiftCost(s, st.colWire[(start+r)%s])
				}
				round *= float64(b)
				rewind := float64(b-1) * cm.ShiftCost(s, st.colWire[start])
				round *= cs
				rewind *= cs
				pieces := spmat.PartBounds(dBounds[j+1]-dBounds[j], b)
				var oneB, fiber float64
				for t := 0; t < b; t++ {
					wire := spmat.DenseWireBytesFor(a.Rows, pieces[t+1]-pieces[t])
					oneB += cm.BcastCost(c, wire)
					fiber += agCost(wire)
				}
				oneB *= cs
				fiber *= cs
				if oneA > maxOneA {
					maxOneA = oneA
				}
				if round > maxShiftRound {
					maxShiftRound = round
				}
				if oneA+round+rewind > maxAStep {
					maxAStep = oneA + round + rewind
				}
				if oneB > maxOneB {
					maxOneB = oneB
				}
				if oneB > maxBStep {
					maxBStep = oneB
				}
				if fiber > maxFiber {
					maxFiber = fiber
				}
			default: // InnerABC
				oneA := cs * cm.BcastCost(c, st.rowWire[j])
				dPieces := spmat.PartBounds(d, b)
				var skew, shift, fiber float64
				for t := 0; t < b; t++ {
					pw := dPieces[t+1] - dPieces[t]
					skew += cm.BcastCost(c, spmat.DenseWireBytesFor(st.colBounds[start+1]-st.colBounds[start], pw))
					for r := 1; r < R; r++ {
						blk := (start + r) % s
						shift += cm.ShiftCost(s, spmat.DenseWireBytesFor(st.colBounds[blk+1]-st.colBounds[blk], pw))
					}
					fiber += agCost(spmat.DenseWireBytesFor(st.rowBounds[j+1]-st.rowBounds[j], pw))
				}
				skew *= cs
				shift *= cs
				fiber *= cs
				if oneA > maxOneA {
					maxOneA = oneA
				}
				if oneA > maxAStep {
					maxAStep = oneA
				}
				if shift > maxShiftB {
					maxShiftB = shift
				}
				if skew+shift > maxBStep {
					maxBStep = skew + shift
				}
				if fiber > maxFiber {
					maxFiber = fiber
				}
			}
		}
	}

	// Work units, matching the meters' accounting (flops plus one unit per
	// measured call).
	n64, d64, p64, b64 := int64(a.Rows), int64(d), int64(p), int64(b)
	c64 := int64(c)
	multWork := nnz*d64 + p64*int64(R)*b64
	var mergeLayerWork, mergeFiberWork int64
	if algo == AlgoInnerABC {
		mergeLayerWork = c64*nnz + p64*int64(a.Cols) + p64
	}
	// Fiber reduction: per rank per batch, c·(panel elements)+1 summed
	// entries. Either algorithm's panels tile one full n×d product per
	// layer, so the all-rank total is c²·n·d regardless of which dimension
	// was partitioned. The b>1 term is the final HCat packing.
	if c > 1 {
		mergeFiberWork = c64*c64*n64*d64 + p64*b64
	}
	if b > 1 {
		mergeFiberWork += c64*n64*d64 + p64
	}

	// Assemble the steps. A single run = one-time + one iteration.
	aStep := StepCost{Step: StepABcast, CommSeconds: maxAStep}
	bStep := StepCost{Step: StepBBcast, CommSeconds: maxBStep}
	steps := []StepCost{
		aStep,
		bStep,
		{Step: StepLocalMult, WorkUnits: multWork},
	}
	if mergeLayerWork > 0 {
		steps = append(steps, StepCost{Step: StepMergeLayer, WorkUnits: mergeLayerWork})
	}
	steps = append(steps,
		StepCost{Step: StepAllToAll, CommSeconds: maxFiber},
		StepCost{Step: StepMergeFiber, WorkUnits: mergeFiberWork},
	)

	// Overlap: the pipelined schedules post each ring shift before the
	// multiply it rides behind; per window the hidden share is
	// min(window comm, window compute), the ledger model.
	var hidden float64
	if pipe && R > 1 {
		windows := float64(b * (R - 1))
		shiftComm := maxShiftRound
		if algo == AlgoInnerABC {
			shiftComm = maxShiftB
		}
		perComp := float64(multWork) * rate / float64(p) / float64(b*R)
		hidden = windows * min(shiftComm/windows, perComp)
		for i := range steps {
			hideStep := StepABcast
			if algo == AlgoInnerABC {
				hideStep = StepBBcast
			}
			if steps[i].Step == hideStep {
				steps[i].CommSeconds -= hidden
				steps[i].HiddenSeconds = hidden
			}
		}
	}

	cand.Steps = steps
	for _, sc := range steps {
		cand.CommSeconds += sc.CommSeconds
		cand.HiddenSeconds += sc.HiddenSeconds
		cand.WorkUnits += sc.WorkUnits
	}

	// One-time vs per-iteration split. ColA's stationary panel broadcast is
	// one-time because chained iterations leave the reduced C panel
	// replicated on every layer — exactly where the next B panel must be;
	// InnerABC amortizes the sparse replication and its column split but
	// re-distributes the fresh dense panel every pass.
	switch algo {
	case AlgoColA:
		cand.OneTimeSeconds = maxOneA + maxOneB
	default:
		cand.OneTimeSeconds = maxOneA + float64(mergeLayerWork)*rate
	}
	cand.PerIterSeconds = cand.CommSeconds + float64(cand.WorkUnits)*rate - cand.OneTimeSeconds
	if cand.PerIterSeconds < 0 {
		cand.PerIterSeconds = 0
	}
	cand.ModelSeconds = cand.OneTimeSeconds + float64(in.Iterations)*cand.PerIterSeconds
	return cand
}
