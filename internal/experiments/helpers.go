package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// coresPerProc mirrors the paper's configuration: 16 threads per MPI process
// on Cori-KNL, so "cores" on figure axes equal 16·p.
const coresPerProc = 16

// coresLabel formats a process count as the paper's core-count axis label.
func coresLabel(p int) string { return fmt.Sprintf("%d", p*coresPerProc) }

// coreOpts applies the run-wide knobs of RunOpts (the intra-rank thread
// count and the broadcast/compute pipeline) to a per-experiment core.Options
// literal; explicit settings in the literal win.
func (o RunOpts) coreOpts(c core.Options) core.Options {
	if c.Threads == 0 {
		c.Threads = o.Threads
	}
	if o.Pipeline {
		c.Pipeline = true
	}
	if c.Format == spmat.FormatAuto {
		c.Format = o.Format
	}
	if c.SparseComm == mpi.SparseOff {
		c.SparseComm = o.SparseComm
	}
	if c.Kernel == localmm.KernelHashUnsorted {
		c.Kernel = o.Kernel
	}
	if c.Merger == localmm.MergerHash {
		c.Merger = o.Merger
	}
	if c.Channels == 0 {
		c.Channels = o.Channels
	}
	return c
}

// runResult bundles what one distributed multiplication yields for plotting.
type runResult struct {
	P, L, B int
	Summary *mpi.Summary
	Results []*core.Result
	Err     error
}

// runMul executes C = A·B on p ranks with l layers under the machine model,
// applying the machine's compute/comm scaling to the metered times. When
// memBytes > 0 the symbolic step chooses b; otherwise forceB is used. With
// discard set the output is consumed batch-wise and dropped
// (core.MultiplyDiscard: the AAᵀ-style workloads of Figs 10–11); otherwise
// it is assembled (core.Multiply).
func runMul(a, b *spmat.CSC, p, l int, machine costmodel.Machine, memBytes int64, forceB int, opts core.Options, discard bool) runResult {
	opts.MemBytes = memBytes
	opts.ForceBatches = forceB
	if memBytes > 0 {
		opts.RunSymbolic = true
		opts.ForceBatches = 0
	}
	rc := core.RunConfig{P: p, L: l, Cost: machine.Cost(), Opts: opts}
	var results []*core.Result
	var summary *mpi.Summary
	var err error
	if discard {
		results, summary, err = core.MultiplyDiscard(a, b, rc, nil)
	} else {
		_, results, summary, err = core.Multiply(a, b, rc, nil)
	}
	if err != nil {
		return runResult{P: p, L: l, Err: err}
	}
	applyMachine(summary, machine)
	return runResult{P: p, L: l, B: results[0].Batches, Summary: summary, Results: results}
}

// spmmResult bundles what one distributed sparse×dense multiplication yields.
type spmmResult struct {
	Out     *spmat.DenseMat
	Results []*core.DenseResult
	Summary *mpi.Summary
	Err     error
}

// runSpMM executes C = A·B for a dense panel B on p ranks under the machine
// model: the 1.5D schedules with replication c, or SUMMA with l layers when
// algo is core.AlgoSUMMA. Machine scaling is applied to the metered times as
// in runMul.
func runSpMM(a *spmat.CSC, b *spmat.DenseMat, p, l int, machine costmodel.Machine, algo core.Algo, c, forceB int, opts core.Options) spmmResult {
	opts.Algo = algo
	opts.Replication = c
	opts.ForceBatches = forceB
	rc := core.RunConfig{P: p, L: l, Cost: machine.Cost(), Opts: opts}
	out, results, summary, err := core.MultiplyDense(a, b, rc)
	if err != nil {
		return spmmResult{Err: err}
	}
	applyMachine(summary, machine)
	return spmmResult{Out: out, Results: results, Summary: summary}
}

// applyMachine scales a summary's times by the machine's compute and comm
// factors (the per-rank meters were already consumed, so scale the summary).
func applyMachine(s *mpi.Summary, m costmodel.Machine) {
	for _, st := range s.Steps {
		st.ComputeSeconds *= m.ComputeScale
		st.CommSeconds *= m.CommScale
		st.HiddenSeconds *= m.CommScale
	}
}

// stepSeconds returns the stacked-bar heights for the seven steps: total
// (comm+compute) seconds per step.
func stepSeconds(s *mpi.Summary) map[string]float64 {
	out := make(map[string]float64, len(core.Steps))
	for _, step := range core.Steps {
		st := s.Step(step)
		out[step] = st.CommSeconds + st.ComputeSeconds
	}
	return out
}

// totalSeconds sums the per-step heights (the figure bar total).
func totalSeconds(s *mpi.Summary) float64 {
	var t float64
	for _, step := range core.Steps {
		st := s.Step(step)
		t += st.CommSeconds + st.ComputeSeconds
	}
	return t
}

// commSeconds sums modeled communication across steps.
func commSeconds(s *mpi.Summary) float64 {
	var t float64
	for _, step := range core.Steps {
		t += s.Step(step).CommSeconds
	}
	return t
}

// computeSeconds sums measured computation across steps.
func computeSeconds(s *mpi.Summary) float64 {
	var t float64
	for _, step := range core.Steps {
		t += s.Step(step).ComputeSeconds
	}
	return t
}

// fmtS formats seconds with adaptive precision.
func fmtS(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.4f", s)
	default:
		return fmt.Sprintf("%.2e", s)
	}
}

// fmtX formats a speedup ratio.
func fmtX(r float64) string { return fmt.Sprintf("%.1fx", r) }

// memoryForBatches returns an aggregate memory budget that makes the
// symbolic step pick roughly the requested number of batches for the given
// operands on p ranks: it estimates the per-rank maxima (inputs with an
// imbalance margin, intermediates from the exact flop count) and inverts
// Alg 3 line 12.
func memoryForBatches(a, b *spmat.CSC, p, l, wantB int, r int64) int64 {
	maxA := 4 * a.NNZ() / int64(p)
	maxB := 4 * b.NNZ() / int64(p)
	// Unmerged intermediate size is bounded by flops (Eq 1); per-rank share
	// with an imbalance margin.
	estC := 2 * localmm.Flops(a, b) / int64(p)
	perProc := float64(r*estC)/float64(wantB) + float64(r*(maxA+maxB))
	return int64(perProc * float64(p))
}

// mclMemoryBudget is memoryForBatches specialized for Markov clustering: the
// stochastic matrix grows across the first expansions before pruning shrinks
// it, so the input term carries extra headroom while the intermediate term
// stays tight enough to force wantB-ish batches in iteration one.
func mclMemoryBudget(m1 *spmat.CSC, p, wantB int) int64 {
	const r = 24
	inputs := 24 * m1.NNZ() / int64(p) // ~12x headroom over the mean 2·nnz/p
	estC := 2 * localmm.Flops(m1, m1) / int64(p)
	perProc := float64(r)*float64(estC)/float64(wantB) + float64(r*inputs)
	return int64(perProc * float64(p))
}
