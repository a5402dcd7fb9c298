package planner

import (
	"fmt"
	"reflect"

	"repro/internal/grid"
	"repro/internal/spmat"
)

// PredictUnmemoized recomputes candidate c with the two sampled-output
// estimates taken from the probe here, for the grid side the candidate's own
// (p, l) gives, in place of whatever the grid's memo holds.
func (pl *Plan) PredictUnmemoized(c Candidate) Candidate {
	gs := pl.stats[c.L]
	q, err := grid.SideFor(pl.In.P, c.L)
	if err != nil {
		panic(err)
	}
	g := pl.Probe.grid(q, c.L)
	gs.outImbalance, gs.fiberCells = g.imbalance, g.cells
	staged := pl.predict(gs, c.Format, 0, c.SparseComm, make([]StepCost, 0, len(Steps)))
	if !c.Pipeline {
		return staged
	}
	return pl.applyOverlap(staged, c.Channels, nil)
}

// NewReference plans like New from the reference statistics of
// reference_test.go — the probe's sample from sampleOracle, every grid's
// block occupancy, slice model and sampled-output passes as they were
// computed before they were made cheaper — one layer count at a time, then
// predicts, enumerates and ranks with the same code New uses. Subset
// statistics stay lazy, as in New (a grid whose every candidate fails the
// budget before the A-broadcast never computes them); InternalsDiff holds
// the ones a plan computed to refSubsetStat.
func NewReference(a, b *spmat.CSC, in Input) (*Plan, error) {
	in = in.withDefaults()
	layers := LayersFor(in.P)
	grids := make([]probedGrid, len(layers))
	for x, l := range layers {
		q, err := grid.SideFor(in.P, l)
		if err != nil {
			return nil, err
		}
		grids[x].q, grids[x].l = q, l
	}
	pr, err := probe(a, b, 0, grids)
	if err != nil {
		return nil, err
	}
	var rows [][]int32
	pr.sampleFlops, pr.sampleNNZ, pr.sampleColID, rows = sampleOracle(a, b, pr.SampledCols)
	pl := &Plan{In: in, Probe: pr, qOf: make(map[int]int), stats: make(map[int]*gridStat)}
	for _, g := range grids {
		gs := refGridStat(a, b, g.q, g.l)
		refSliceModel(gs, pr, rows)
		pl.qOf[g.l], pl.stats[g.l] = g.q, gs
		pl.enumerate(gs, new(stepArena))
	}
	pl.rank()
	return pl, nil
}

// UnmergedWReference is the reference slice model (refUnmergedW).
func (pr *Probe) UnmergedWReference(weights []float64) (float64, []float64) {
	return refUnmergedW(pr, weights)
}

// SampledColumns splits pr into one probe per sampled column, each with pr's
// scale: the slice model of one column, where no other column's volume can
// round a last-bit difference away.
func (pr *Probe) SampledColumns() []*Probe {
	out := make([]*Probe, len(pr.sampleFlops))
	for k := range out {
		c := *pr
		c.sampleFlops, c.sampleNNZ = pr.sampleFlops[k:k+1], pr.sampleNNZ[k:k+1]
		c.sampleColID = pr.sampleColID[k : k+1]
		out[k] = &c
	}
	return out
}

// InternalsDiff names the first statistic — the probe's, or a grid's — on
// which pl and ref differ, or returns "" when every one is deeply equal and
// every subset statistic pl computed equals refSubsetStat's.
func (pl *Plan) InternalsDiff(ref *Plan) string {
	if !reflect.DeepEqual(pl.Probe, ref.Probe) {
		return "probe"
	}
	if len(pl.stats) != len(ref.stats) {
		return fmt.Sprintf("%d grids, reference %d", len(pl.stats), len(ref.stats))
	}
	for l, r := range ref.stats {
		g := pl.stats[l]
		if g == nil {
			return fmt.Sprintf("l = %d: no grid", l)
		}
		fields := []struct {
			name string
			x, y any
		}{
			{"q", g.q, r.q}, {"aNNZ", g.aNNZ, r.aNNZ}, {"aNE", g.aNE, r.aNE}, {"aCols", g.aCols, r.aCols},
			{"bNNZ", g.bNNZ, r.bNNZ}, {"bNE", g.bNE, r.bNE}, {"bCols", g.bCols, r.bCols},
			{"sliceModelDone", g.sliceModelDone, r.sliceModelDone},
			{"uQL", g.uQL, r.uQL}, {"uL", g.uL, r.uL},
			{"perSliceQL", g.perSliceQL, r.perSliceQL}, {"perLayerL", g.perLayerL, r.perLayerL},
			{"maxLayerQL", g.maxLayerQL, r.maxLayerQL}, {"maxLayerL", g.maxLayerL, r.maxLayerL},
			{"outImbalance", g.outImbalance, r.outImbalance}, {"fiberCells", g.fiberCells, r.fiberCells},
			{"subStatDone", g.subStatDone, r.subStatDone},
			{"aSubNE", g.aSubNE, r.aSubNE}, {"aSubNNZ", g.aSubNNZ, r.aSubNNZ}, {"bRowSup", g.bRowSup, r.bRowSup},
		}
		for _, f := range fields {
			if !reflect.DeepEqual(f.x, f.y) {
				return fmt.Sprintf("l = %d: %s", l, f.name)
			}
		}
		if g.subStatDone {
			s := &gridStat{q: g.q, l: g.l}
			refSubsetStat(s, pl.Probe.a, pl.Probe.b)
			if !reflect.DeepEqual(g.aSubNE, s.aSubNE) || !reflect.DeepEqual(g.aSubNNZ, s.aSubNNZ) || !reflect.DeepEqual(g.bRowSup, s.bRowSup) {
				return fmt.Sprintf("l = %d: subset statistics", l)
			}
		}
	}
	return ""
}

// Unmerged estimates the total unmerged intermediate nonzeros Σ nnz(D̃) when
// the inner dimension is split into slices carrying equal flop shares — the
// uniform special case of UnmergedW, kept for envelope tests.
func (pr *Probe) Unmerged(slices int) float64 {
	if slices < 1 {
		slices = 1
	}
	w := make([]float64, slices)
	for i := range w {
		w[i] = 1 / float64(slices)
	}
	total, _ := pr.UnmergedW(w)
	return total
}

// LayerWeights folds SliceWeights over the stages: the flop share of each
// layer's slice of the inner dimension.
func (pr *Probe) LayerWeights(q, l int) []float64 {
	return foldLayers(pr.SliceWeights(q, l), q, l)
}

// Evaluate predicts one explicit sparse×dense configuration, pinning its
// batch count (cfg.B ≤ 0 induces).
func (pl *DensePlan) Evaluate(cfg DenseConfig) (DenseCandidate, error) {
	switch cfg.Algo {
	case AlgoColA, AlgoInnerABC:
		if err := grid.Valid15(pl.In.P, cfg.C); err != nil {
			return DenseCandidate{}, err
		}
		return pl.predict15(cfg.Algo, cfg.C, cfg.B, cfg.Pipeline), nil
	case AlgoSUMMA:
		if pl.SUMMA == nil {
			return DenseCandidate{}, fmt.Errorf("planner: the SUMMA arm was not enumerated")
		}
		sc, err := pl.SUMMA.Evaluate(Config{L: cfg.L, B: cfg.B, Format: spmat.FormatAuto, Pipeline: cfg.Pipeline})
		if err != nil {
			return DenseCandidate{}, err
		}
		return pl.wrapSUMMA(sc), nil
	}
	return DenseCandidate{}, fmt.Errorf("planner: unknown dense algorithm %v", cfg.Algo)
}

// Step returns the named step's cost (zero value if absent).
func (c *DenseCandidate) Step(name string) StepCost {
	for _, s := range c.Steps {
		if s.Step == name {
			return s
		}
	}
	return StepCost{}
}
