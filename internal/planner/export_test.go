package planner

import (
	"fmt"
	"reflect"

	"repro/internal/grid"
	"repro/internal/spmat"
)

// PredictUnmemoized recomputes candidate c with the two sampled-output passes
// taken from the probe here, for the grid side the candidate's own (p, l)
// gives — the calls predict made at their use sites before gridStat
// remembered them — in place of whatever the grid's memo holds.
func (pl *Plan) PredictUnmemoized(c Candidate) Candidate {
	gs := pl.stats[c.L]
	q, err := grid.SideFor(pl.In.P, c.L)
	if err != nil {
		panic(err)
	}
	gs.outImbalance, gs.fiberCells = pl.Probe.outputImbalance(q), pl.Probe.fiberOccupied(q)
	staged := pl.predict(gs, c.Format, 0, c.SparseComm)
	if !c.Pipeline {
		return staged
	}
	return pl.applyOverlap(staged, c.Channels)
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
	pr, err := ProbePair(a, b, 0)
	if err != nil {
		return nil, err
	}
	pr.sampleFlops, pr.sampleNNZ, pr.sampleColID, pr.sampleRows = sampleOracle(a, b, pr.SampledCols)
	pl := &Plan{In: in, Probe: pr, qOf: make(map[int]int), stats: make(map[int]*gridStat), a: a, b: b}
	for _, l := range LayersFor(in.P) {
		q, err := grid.SideFor(in.P, l)
		if err != nil {
			return nil, err
		}
		gs := refGridStat(a, b, q, l)
		refSliceModel(gs, pr)
		pl.qOf[l], pl.stats[l] = q, gs
		pl.enumerate(gs)
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
		c.sampleColID, c.sampleRows = pr.sampleColID[k:k+1], pr.sampleRows[k:k+1]
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
			refSubsetStat(s, pl.a, pl.b)
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
