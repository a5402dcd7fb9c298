package core

import (
	"fmt"

	"repro/internal/distmat"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/spmat"
)

// RunConfig describes one distributed multiplication launched from the host:
// the process-grid shape, the α–β constants used to model communication, and
// the algorithm options.
type RunConfig struct {
	// P is the number of simulated processes; must be L times a perfect
	// square.
	P int
	// L is the number of layers (1 = plain 2D SUMMA).
	L int
	// Cost supplies the modeled latency and inverse bandwidth.
	Cost mpi.CostModel
	// Opts are the algorithm options shared by all ranks.
	Opts Options
	// Trace, when non-nil, records one obs span per metered interval of every
	// rank (batch/stage/channel labeled), exportable afterwards as a
	// Chrome/Perfetto trace via Trace.WriteTrace. Nil — the default — records
	// nothing and adds zero allocations to the metered hot paths.
	Trace *obs.Recorder
}

// Validate checks the grid shape.
func (rc RunConfig) Validate() error {
	if _, err := grid.SideFor(rc.P, rc.L); err != nil {
		return err
	}
	return nil
}

// HookFactory builds a per-rank batch hook; nil means no hook. The factory is
// called once per rank with the world rank.
type HookFactory func(rank int) BatchHook

// RowOffsetFor returns the global row index of local row 0 for the given
// world rank on a p-rank, l-layer grid over a matrix with the given row
// count. Hook factories use it to translate the local row indices their
// hooks receive into global rows.
func RowOffsetFor(rows int32, p, l, rank int) int32 {
	q, err := grid.SideFor(p, l)
	if err != nil {
		panic(err)
	}
	i := (rank % (q * q)) / q
	return spmat.PartBounds(rows, q)[i]
}

// launch is the one rank-launch body behind every host entry point: it
// validates the grid, deals both operands out to all p ranks in one sweep
// each on the host (distmat's Split — the simulated equivalent of reading a
// pre-distributed matrix, and the only time the engine copies the operands),
// starts a fresh world, and runs body on every rank's wired Proc. The first
// rank error is returned, wrapped with its rank.
func launch(a, b *spmat.CSC, rc RunConfig, body func(rank int, p *Proc) error) ([]*mpi.Meter, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("core: inner dimension mismatch: A is %v, B is %v", a, b)
	}
	q, err := grid.SideFor(rc.P, rc.L)
	if err != nil {
		return nil, err
	}
	da := distmat.NewADist(a.Rows, a.Cols, q, rc.L)
	db := distmat.NewBDist(b.Rows, b.Cols, q, rc.L)
	blocksA := da.Split(a, rc.Opts.Format)
	blocksB := db.Split(b, rc.Opts.Format)
	errs := make([]error, rc.P)
	meters := mpi.RunTraced(rc.P, rc.Cost, rc.Trace, func(c *mpi.Comm) {
		r := c.Rank()
		g, err := grid.New(c, rc.L)
		if err == nil {
			localA, localB := blocksA[da.Index(g.I, g.J, g.K)], blocksB[db.Index(g.I, g.J, g.K)]
			err = body(r, SetupLocal(g, da, db, localA, localB, rc.Opts))
		}
		errs[r] = err
	})
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", r, err)
		}
	}
	return meters, nil
}

// MultiplyRanks runs BatchedSUMMA3D for C = A·B on a fresh simulated cluster
// and returns what the ranks hold when it ends — the per-rank results, C
// still distributed, and the step metering summary — assembling nothing.
// Multiply and MultiplyDiscard are this run plus, respectively, the assembly
// of the global product and a hook that drops every batch once consumed.
func MultiplyRanks(a, b *spmat.CSC, rc RunConfig, hooks HookFactory) ([]*Result, *mpi.Summary, error) {
	if rc.Opts.AutoTune {
		var err error
		if rc, _, err = AutoTuneConfig(a, b, rc); err != nil {
			return nil, nil, err
		}
	}
	results := make([]*Result, rc.P)
	meters, err := launch(a, b, rc, func(rank int, p *Proc) error {
		var hook BatchHook
		if hooks != nil {
			hook = hooks(rank)
		}
		res, err := p.BatchedSUMMA3D(hook)
		results[rank] = res
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return results, mpi.Summarize(meters), nil
}

// Multiply runs BatchedSUMMA3D for C = A·B on a fresh simulated cluster and
// returns the assembled global product, the per-rank results, and the step
// metering summary.
func Multiply(a, b *spmat.CSC, rc RunConfig, hooks HookFactory) (*spmat.CSC, []*Result, *mpi.Summary, error) {
	results, summary, err := MultiplyRanks(a, b, rc, hooks)
	if err != nil {
		return nil, nil, nil, err
	}
	assembled, err := AssembleResults(results, a.Rows, b.Cols)
	if err != nil {
		return nil, nil, nil, err
	}
	return assembled, results, summary, nil
}

// MultiplyDiscard is Multiply for workloads that consume batches through the
// hook and never need the assembled product (the memory-constrained usage
// the paper targets): every batch is replaced by an empty piece once the
// user's hook has seen it, so no rank ever holds more than one batch of C.
func MultiplyDiscard(a, b *spmat.CSC, rc RunConfig, hooks HookFactory) ([]*Result, *mpi.Summary, error) {
	return MultiplyRanks(a, b, rc, func(rank int) BatchHook {
		var userHook BatchHook
		if hooks != nil {
			userHook = hooks(rank)
		}
		return func(batch int, cols []int32, m *spmat.CSC) *spmat.CSC {
			if userHook != nil {
				if pruned := userHook(batch, cols, m); pruned != nil {
					m = pruned
				}
			}
			return spmat.New(m.Rows, m.Cols)
		}
	})
}
