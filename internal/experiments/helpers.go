package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/spmat"
)

// coresPerProc mirrors the paper's configuration: 16 threads per MPI process
// on Cori-KNL, so "cores" on figure axes equal 16·p.
const coresPerProc = 16

// coresLabel formats a process count as the paper's core-count axis label.
func coresLabel(p int) string { return fmt.Sprintf("%d", p*coresPerProc) }

// pins fix one multiplication an experiment runs: the grid, the machine
// model and every engine option. opts.MemBytes > 0 lets the symbolic step
// choose b under that aggregate budget; otherwise opts.ForceBatches runs
// exactly that many batches.
type pins struct {
	p, l    int
	machine costmodel.Machine
	opts    core.Options
	// discard consumes the output batch-wise and drops it
	// (core.MultiplyDiscard: the AAᵀ-style workloads of Figs 10–11) instead
	// of assembling it (core.Multiply).
	discard bool
	// trace, when set, records the run's spans.
	trace *obs.Recorder
}

// pins returns the pins of a run on p ranks in l layers under the run's
// machine and thread count; opts holds the experiment's own engine pins.
func (o RunOpts) pins(p, l int, opts core.Options) pins {
	opts.Threads = o.Threads
	return pins{p: p, l: l, machine: o.Machine, opts: opts}
}

// outcome is what one multiplication yields for plotting: the batch count it
// executed, its machine-scaled summary, the per-rank results (sparse×sparse)
// or the product (sparse×dense), and the summary's deterministic totals over
// the paper's seven steps.
type outcome struct {
	b       int
	summary *mpi.Summary
	results []*core.Result
	dense   *spmat.DenseMat
	// comm is the modeled communication seconds, work the work units and
	// bytes the payload bytes, each summed over core.Steps.
	comm        float64
	work, bytes int64
}

// model is the gate objective: modeled communication plus work units at
// the pinned rate.
func (o outcome) model() float64 { return o.comm + float64(o.work)*GateSecPerWorkUnit }

// recordRun, when set, sees every run execute completes: the configuration
// handed to core, whether the output was discarded, the batch count the run
// executed and its machine-scaled summary. It is nil except while the golden
// run-record test runs the experiments.
var recordRun func(rc core.RunConfig, discard bool, batches int, s *mpi.Summary)

// execute runs C = A·B under pn — or, when panel is non-nil, A times that
// dense panel (core.MultiplyDense; b is ignored) — and scales the metered
// times by the machine's compute and comm factors.
func execute(a, b *spmat.CSC, panel *spmat.DenseMat, pn pins) (outcome, error) {
	rc := core.RunConfig{P: pn.p, L: pn.l, Cost: pn.machine.Cost(), Opts: pn.opts, Trace: pn.trace}
	var out outcome
	var err error
	switch {
	case panel != nil:
		var results []*core.DenseResult
		out.dense, results, out.summary, err = core.MultiplyDense(a, panel, rc)
		if len(results) > 0 { // the densified SUMMA path returns none
			out.b = results[0].Batches
		}
	case pn.discard:
		out.results, out.summary, err = core.MultiplyDiscard(a, b, rc, nil)
	default:
		_, out.results, out.summary, err = core.Multiply(a, b, rc, nil)
	}
	if err != nil {
		return outcome{}, err
	}
	if len(out.results) > 0 {
		out.b = out.results[0].Batches
	}
	applyMachine(out.summary, pn.machine)
	for _, step := range core.Steps {
		st := out.summary.Step(step)
		out.comm += st.CommSeconds
		out.work += st.WorkUnits
		out.bytes += st.Bytes
	}
	if recordRun != nil {
		recordRun(rc, pn.discard, out.b, out.summary)
	}
	return out, nil
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
