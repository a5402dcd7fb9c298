package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/planner"
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
	// dense, set on a sparse×dense run, is its whole schedule
	// (core.MultiplyDense); opts then supplies only the per-rank settings
	// and l is unused.
	dense *planner.DenseConfig
	// discard consumes the output batch-wise and drops it
	// (core.MultiplyDiscard: the AAᵀ-style workloads of Figs 10–11) instead
	// of assembling it (core.Multiply).
	discard bool
	// trace, when set, records the run's spans.
	trace *obs.Recorder
}

// point returns the run of a·b on p ranks in l layers under the run's
// machine (RunOpts.machine) and thread count, led by labels; opts holds the
// experiment's own engine pins.
func (o RunOpts) point(a, b *spmat.CSC, p, l int, opts core.Options, labels ...string) point {
	opts.Threads = o.Threads
	return point{labels: labels, a: a, b: b, pn: pins{p: p, l: l, machine: o.machine(), opts: opts}}
}

// point is one run of a sweep: the axis labels that lead its table row, its
// operands (a·b, or a times panel when panel is set) and its pins.
type point struct {
	labels []string
	a, b   *spmat.CSC
	panel  *spmat.DenseMat
	pn     pins
}

// outcome is what one multiplication yields for plotting: its pins, the
// batch count it executed, its machine-scaled summary, the per-rank results
// (sparse×sparse) or the product (sparse×dense), and the summary's
// deterministic totals over the paper's seven steps.
type outcome struct {
	pn      pins
	b       int
	summary *mpi.Summary
	results []*core.Result
	dense   *spmat.DenseMat
	// comm is the modeled communication seconds, work the work units and
	// bytes the payload bytes, each summed over core.Steps.
	comm        float64
	work, bytes int64
	// peak is the largest modeled memory peak of any rank
	// (Result.PeakMemBytes, DenseResult.PeakMemBytes).
	peak int64
	// base is the first outcome of the run's sweep, which relative columns
	// (speedup, efficiency, ideal scaling) measure against.
	base *outcome
}

// column is one column of a sweep table after the axis labels: its header
// and its cell for a run's outcome.
type column struct {
	head string
	cell func(o outcome) string
}

// as returns c under another header.
func (c column) as(head string) column {
	c.head = head
	return c
}

// The columns the sweep tables share: the executed batch count, the work
// units and bytes moved, the comm/comp/total/share split, and the seven-step
// breakdown (the batch count, each step's comm plus compute seconds in
// core.Steps order, their total).
var (
	batchCol  = column{"b", func(o outcome) string { return fmt.Sprint(o.b) }}
	workCol   = column{"work units", func(o outcome) string { return fmt.Sprint(o.work) }}
	bytesCol  = column{"bytes moved", func(o outcome) string { return fmt.Sprint(o.bytes) }}
	commCol   = column{"comm s", func(o outcome) string { return fmtS(o.comm) }}
	compCol   = column{"comp s", func(o outcome) string { return fmtS(o.comp()) }}
	totalCol  = column{"total", func(o outcome) string { return fmtS(o.total()) }}
	shareCol  = column{"comm share", func(o outcome) string { return fmtShare(o.comm, o.total()) }}
	breakdown = stepBreakdown()
)

func stepBreakdown() []column {
	cols := []column{batchCol}
	for i, head := range []string{"Symbolic", "A-Bcast", "B-Bcast", "LocalMult", "MergeLayer", "AllToAll", "MergeFiber"} {
		step := core.Steps[i]
		cols = append(cols, column{head, func(o outcome) string { return fmtS(stepSeconds(o.summary)[step]) }})
	}
	return append(cols, totalCol)
}

// sweepTable appends a table whose rows are run points (Table.sweep): each
// point's labels under the axes headers, then one cell per column.
func (r *Report) sweepTable(name string, axes []string, cols ...column) *Table {
	t := r.NewTable(name, axes...)
	for _, c := range cols {
		t.Header = append(t.Header, c.head)
	}
	t.cols = cols
	return t
}

// sweep runs pts (runAll) and appends each point's row to t: its labels,
// then each column's cell for its outcome. It returns the outcomes.
func (t *Table) sweep(pts ...point) ([]outcome, error) {
	outs, err := runAll(pts...)
	for i, o := range outs {
		row := slices.Clone(pts[i].labels)
		for _, c := range t.cols {
			row = append(row, c.cell(o))
		}
		t.AddRow(row...)
	}
	return outs, err
}

// runAll runs each point through execute, wrapping an error with the point,
// and returns the outcomes in point order, each with the first as its base.
func runAll(pts ...point) ([]outcome, error) {
	outs := make([]outcome, len(pts))
	for i, pt := range pts {
		o, err := execute(pt.a, pt.b, pt.panel, pt.pn)
		if err != nil {
			return nil, fmt.Errorf("run %v on p=%d, l=%d: %w", pt.labels, pt.pn.p, pt.pn.l, err)
		}
		o.base = &outs[0]
		outs[i] = o
	}
	return outs, nil
}

// model is the gate objective: modeled communication plus work units at
// the pinned rate.
func (o outcome) model() float64 { return o.comm + float64(o.work)*GateSecPerWorkUnit }

// comp sums the run's compute seconds over the steps, total its comm plus
// compute seconds.
func (o outcome) comp() float64  { return computeSeconds(o.summary) }
func (o outcome) total() float64 { return totalSeconds(o.summary) }

// fastest returns the first of outs with the least total seconds.
func fastest(outs []outcome) outcome {
	return slices.MinFunc(outs, func(x, y outcome) int { return cmp.Compare(x.total(), y.total()) })
}

// recordRun, when set, sees the outcome of every run execute completes — its
// pins, the batch count it executed, its ranks' peak and its machine-scaled
// summary — before the experiment reads the summary. It is nil except while
// the golden tests run the experiments.
var recordRun func(o outcome)

// execute runs C = A·B under pn — or, when panel is non-nil, A times that
// dense panel under pn.dense (core.MultiplyDense; b is ignored) — and scales
// the metered times by the machine's compute and comm factors.
func execute(a, b *spmat.CSC, panel *spmat.DenseMat, pn pins) (outcome, error) {
	rc := core.RunConfig{P: pn.p, L: pn.l, Cost: pn.machine.Cost(), Opts: pn.opts, Trace: pn.trace}
	out := outcome{pn: pn}
	var err error
	switch {
	case panel != nil:
		var results []*core.DenseResult
		out.dense, results, out.summary, err = core.MultiplyDense(a, panel, rc, *pn.dense)
		if len(results) > 0 {
			out.b = results[0].Batches
		}
		for _, r := range results {
			out.peak = max(out.peak, r.PeakMemBytes)
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
	for _, r := range out.results {
		out.peak = max(out.peak, r.PeakMemBytes)
	}
	// The per-rank meters were already consumed: scale the summary.
	for _, st := range out.summary.Steps {
		st.ComputeSeconds *= pn.machine.ComputeScale
		st.CommSeconds *= pn.machine.CommScale
		st.HiddenSeconds *= pn.machine.CommScale
	}
	for _, step := range core.Steps {
		st := out.summary.Step(step)
		out.comm += st.CommSeconds
		out.work += st.WorkUnits
		out.bytes += st.Bytes
	}
	if recordRun != nil {
		recordRun(out)
	}
	return out, nil
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

// fmtShare formats part as a percentage of whole (0% when whole is not
// positive).
func fmtShare(part, whole float64) string {
	share := 0.0
	if whole > 0 {
		share = part / whole
	}
	return fmt.Sprintf("%.0f%%", share*100)
}

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
