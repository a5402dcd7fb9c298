package core

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/planner"
	"repro/internal/spmat"
)

// AutoTuneOnMachine consults the analytical planner and returns a copy of rc
// rewritten to the best predicted configuration: the layer count, the
// induced batch count, the storage format, the schedule, the
// sparse-communication mode and the channel count. The planner weighs
// communication with the machine's CommScale, matching callers (the spgemm
// facade, the experiment harness) that scale reported comm seconds by it.
// The returned plan carries the full ranked candidate list and report for
// callers that want to show the "why".
//
// The batch count is handled by authority, not prediction: with a memory
// budget the run keeps ForceBatches unset so the distributed symbolic step
// (Alg 3, which always runs — and is metered — under a budget) makes the
// real Allreduce'd decision; the planner's induced b only ranked the
// candidates. A probe under-estimate therefore can never push a budgeted
// run below the batch count the budget requires. Without a budget the
// planner's b (always 1) is pinned, skipping nothing.
func AutoTuneOnMachine(a, b *spmat.CSC, rc RunConfig, m costmodel.Machine) (RunConfig, *planner.Plan, error) {
	pl, err := planner.New(a, b, PlanInput(rc, m))
	if err != nil {
		return rc, nil, err
	}
	best := pl.Best()
	if best == nil {
		return rc, pl, fmt.Errorf("core: autotune found no feasible configuration under the %d-byte budget", rc.Opts.MemBytes)
	}
	rc, err = ApplyChoice(rc, best.Choice())
	return rc, pl, err
}

// PlanInput returns the planner Input AutoTuneOnMachine decides under for
// this run configuration and machine: the constraints the run is under — its
// rank count, budget and machine, and whether the symbolic pass runs. It is
// exported so callers that cache planner decisions (the serving layer) can
// key the cache on exactly what shapes the decision, via planner.CacheKey.
func PlanInput(rc RunConfig, m costmodel.Machine) planner.Input {
	return planner.Input{
		P:        rc.P,
		MemBytes: rc.Opts.MemBytes,
		Machine:  m,
		Symbolic: rc.Opts.MemBytes > 0 || rc.Opts.RunSymbolic,
	}
}

// ApplyChoice rewrites rc to a previously-made planner decision without any
// probe or sweep — the execution half of AutoTuneOnMachine, reusable with a
// cached Choice. The batch count is handled by authority, exactly like a
// fresh autotune: under a memory budget ForceBatches stays unset so the
// distributed symbolic step makes the real decision; without one the
// choice's induced b (always 1) is pinned. The local kernel and merger are
// not part of a choice: rc's stay as they are (the sort-free hash pair unless
// the caller pinned others).
func ApplyChoice(rc RunConfig, ch planner.Choice) (RunConfig, error) {
	cfg, err := ch.Config()
	if err != nil {
		return rc, err
	}
	rc.L = cfg.L
	if rc.Opts.MemBytes > 0 {
		rc.Opts.ForceBatches = 0
		rc.Opts.RunSymbolic = true
	} else {
		rc.Opts.ForceBatches = cfg.B
	}
	rc.Opts.Format = cfg.Format
	rc.Opts.Pipeline = cfg.Pipeline
	rc.Opts.SparseComm = cfg.SparseComm
	rc.Opts.Channels = cfg.Channels
	return rc, nil
}
