package core

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/mpi"
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
		return rc, pl, fmt.Errorf("core: autotune found no feasible configuration under the %d-byte budget", rc.Opts.withDefaults().MemBytes)
	}
	rc, err = ApplyChoice(rc, best.Choice())
	return rc, pl, err
}

// PlanInput returns the planner Input AutoTuneOnMachine decides under for
// this run configuration and machine — exported so callers that cache
// planner decisions (the serving layer) can key the cache on exactly the
// knobs that shape the decision, via planner.CacheKey.
func PlanInput(rc RunConfig, m costmodel.Machine) planner.Input {
	opts := rc.Opts.withDefaults()
	return planner.Input{
		P:           rc.P,
		MemBytes:    opts.MemBytes,
		Machine:     m,
		BytesPerNnz: opts.BytesPerNnz,
		Symbolic:    opts.MemBytes > 0 || opts.RunSymbolic,
		MaxBatches:  opts.MaxBatches,
		// Sweep the sparse-communication knob too: off and the per-stage
		// cost-model decision. SparseOn is omitted — auto's prediction is
		// ≤ on's by construction (it takes subsets exactly where they win),
		// so on can never be the optimum.
		SparseComms: []mpi.SparseMode{mpi.SparseOff, mpi.SparseAuto},
		// Sweep the overlap channel count for pipelined candidates: the
		// single-injection ledger and a second NIC channel. Higher k only
		// adds hiding capacity beyond what two independent broadcast
		// streams can use, so k=2 saturates the model.
		Channels: []int{1, 2},
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
	if rc.Opts.withDefaults().MemBytes > 0 {
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

// AutoTuneDenseOnMachine consults the sparse×dense planner and returns a
// copy of rc rewritten to the best predicted configuration of MultiplyDense's
// space: the algorithm family (SUMMA vs the 1.5D schedules), the replication
// factor, the batch count, and the schedule. Like AutoTuneOnMachine it weighs
// communication with the machine's CommScale.
func AutoTuneDenseOnMachine(a *spmat.CSC, b *spmat.DenseMat, rc RunConfig, m costmodel.Machine) (RunConfig, *planner.DensePlan, error) {
	opts := rc.Opts.withDefaults()
	pl, err := planner.NewDense(a, b.Cols, planner.DenseInput{
		P:           rc.P,
		MemBytes:    opts.MemBytes,
		Machine:     m,
		BytesPerNnz: opts.BytesPerNnz,
		MaxBatches:  opts.MaxBatches,
	})
	if err != nil {
		return rc, nil, err
	}
	best := pl.Best()
	if best == nil {
		return rc, pl, fmt.Errorf("core: dense autotune found no feasible configuration under the %d-byte budget", opts.MemBytes)
	}
	algo, err := ParseAlgo(best.Algo)
	if err != nil {
		return rc, pl, err
	}
	rc.Opts.Algo = algo
	rc.Opts.Pipeline = best.Pipeline
	rc.Opts.ForceBatches = best.B
	if algo == AlgoSUMMA {
		rc.L = best.L
	} else {
		rc.Opts.Replication = best.C
	}
	return rc, pl, nil
}
