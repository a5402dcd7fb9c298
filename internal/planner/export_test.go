package planner

import "repro/internal/grid"

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
