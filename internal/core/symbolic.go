package core

import (
	"fmt"
	"math"

	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// Symbolic3D executes Algorithm 3: the communication-avoiding distributed
// symbolic step that estimates the number of batches b required for the
// multiplication to fit in M aggregate bytes. Like 3D SUMMA it broadcasts Ã
// and B̃ through every stage of every layer, but the local work only counts
// output nonzeros (LOCALSYMBOLIC), so the broadcasts dominate and the 3D
// communication-avoidance matters even more (Fig 8).
//
// It returns the estimated batch count b ≥ 1 and the max-over-ranks unmerged
// output nonzeros the estimate was based on. The estimate uses per-process
// maxima (not averages) so that no process exhausts its share of memory even
// under load imbalance.
func (p *Proc) Symbolic3D() (b int, maxNNZC int64, err error) {
	g := p.G
	meter := g.World.Meter()
	meter.SetCategory(StepSymbolic)

	var localNNZ int64 // nnz[i,j,k] of Alg 3

	// The stage loop is SUMMA's (forEachStage) over the whole local B, with
	// the broadcasts and the counting charged to Symbolic and, under
	// Opts.Pipeline, the hidden broadcast share to Symbolic-Hidden. The
	// symbolic pass is dominated by its broadcasts (Fig 8), so this is where
	// overlap pays off most. Nothing is prefetched across the loop's end.
	p.forEachStage(p.LocalB, nil, StepSymbolic, StepSymbolicHidden, StepSymbolic, StepSymbolicHidden, func(s int, aRecv, bRecv spmat.Matrix) {
		// The stage-s B block is exactly the one whose row support is the
		// sparse A path's stage-s column subset; capture it for free.
		p.recordSupport(s, bRecv)

		var flops int64
		symSec := p.measure(func() {
			// LOCALSYMBOLIC (Alg 3 line 7), threaded like the numeric
			// kernels (Proc.workers), from the same one-pass flop count the
			// work units below charge.
			plan := localmm.PlanMul(aRecv, bRecv)
			flops = plan.Flops
			localNNZ += plan.Symbolic(p.workers(flops))
			plan.Release()
		})
		meter.AddComputeWork(symSec, flops+bRecv.NNZ()+colScanWork(bRecv)+1)
	})

	// Alg 3 lines 9–11: max unmerged output, max Ã, max B̃ over all ranks.
	// The input terms are the per-format modeled footprints, not flat
	// r·nnz: a doubly-compressed block charges only its stored columns, so
	// hypersparse inputs leave more per-process headroom and the decision
	// lands on fewer batches under the same MemBytes.
	// (spmat.BlockMemBytes: flat r·nnz for CSC so pre-format-knob
	// decisions reproduce bit-for-bit; explicit per-stored-column
	// accounting for DCSC.)
	maxNNZC = g.World.AllreduceInt64(localNNZ, mpi.OpMax)
	maxMemA := g.World.AllreduceInt64(spmat.BlockMemBytes(p.LocalA, spmat.BytesPerNonzero), mpi.OpMax)
	maxMemB := g.World.AllreduceInt64(spmat.BlockMemBytes(p.LocalB, spmat.BytesPerNonzero), mpi.OpMax)

	b, err = batchesFor(maxNNZC, maxMemA, maxMemB, p.Opts.MemBytes, g.P())
	return b, maxNNZC, err
}

// batchesFor evaluates Alg 3 line 12: b = ⌈r·maxnnzC / (M/p − (memA +
// memB))⌉, clamped to at least 1, where r is spmat.BytesPerNonzero and
// memA/memB are the per-format input footprints. An unconstrained memory
// budget (memBytes ≤ 0) yields 1. The per-process share can be fractional, so
// the ceiling is math.Ceil's, as in the planner's induced b.
func batchesFor(maxNNZC, maxMemA, maxMemB, memBytes int64, p int) (int, error) {
	if memBytes <= 0 {
		return 1, nil
	}
	perProc := float64(memBytes) / float64(p)
	avail := perProc - float64(maxMemA+maxMemB)
	if avail <= 0 {
		return 0, fmt.Errorf("core: inputs alone exceed the memory budget: per-process %g bytes, inputs need %d",
			perProc, maxMemA+maxMemB)
	}
	b := int(math.Ceil(float64(spmat.BytesPerNonzero*maxNNZC) / avail))
	if b < 1 {
		b = 1
	}
	return b, nil
}

// SymbolicBatches runs only the distributed symbolic step (Alg 3) on a
// fresh simulated cluster and returns the agreed batch count — the host-side
// entry point for studying the batch decision (e.g. CSC-vs-DCSC footprint
// ablations) without paying for the numeric phases.
func SymbolicBatches(a, b *spmat.CSC, rc RunConfig) (int, error) {
	rc.Trace = nil // a symbolic-only study records no spans
	da, db, err := deal(a, b, rc)
	if err != nil {
		return 0, err
	}
	bs := make([]int, rc.P)
	_, err = launch(da, db, rc, func(rank int, p *Proc) (err error) {
		bs[rank], _, err = p.Symbolic3D()
		return err
	})
	if err != nil {
		return 0, err
	}
	return bs[0], nil
}

// BatchLowerBound evaluates the analytic lower bound of Eq 2 on the host:
// b ≥ ⌈mem(C) / (M − r(nnz(A)+nnz(B)))⌉ where mem(C) = r·Σ_k nnz(D(k)) is the
// aggregate unmerged intermediate size. Returns 1 when memory is
// unconstrained.
func BatchLowerBound(memC, nnzA, nnzB, memBytes, bytesPerNnz int64) int {
	if memBytes <= 0 {
		return 1
	}
	avail := memBytes - bytesPerNnz*(nnzA+nnzB)
	if avail <= 0 {
		return 1 << 30 // effectively infeasible
	}
	b := (memC + avail - 1) / avail
	if b < 1 {
		return 1
	}
	return int(b)
}
