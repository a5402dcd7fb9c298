package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
)

func init() {
	register(&Experiment{
		ID:    "fig8",
		Title: "Symbolic step: communication vs computation across layers",
		claim: "Symbolic communication shrinks >4x from 1 to 16 layers, giving >2x total " +
			"symbolic speedup, because LOCALSYMBOLIC is much cheaper than LOCALMULTIPLY " +
			"while the broadcasts are identical.",
		run: runFig8,
	})
}

// runFig8 splits the symbolic step for l ∈ {1, 4, 16}, then sets its
// compute against a numeric multiply's: the estimator is
// communication-dominated, so layers speed it up even more than the multiply.
func runFig8(r *Report, opts RunOpts) error {
	a := mustWorkload(WLIsolatesSmall, opts.Scale)
	p := 64
	if opts.Scale == ScaleLarge {
		p = 256
	}
	sym := func(o outcome) *mpi.StepStats {
		st := o.summary.Step(core.StepSymbolic)
		return &st
	}
	var pts []point
	for _, l := range []int{1, 4, 16} {
		pts = append(pts, opts.point(a, a, p, l, core.Options{ForceBatches: 1, RunSymbolic: true}, fmt.Sprint(l)))
	}
	outs, err := r.sweepTable(fmt.Sprintf("symbolic step on %s (p=%d)", WLIsolatesSmall, p), []string{"l"},
		column{"comm s (modeled)", func(o outcome) string { return fmtS(sym(o).CommSeconds) }},
		column{"comp s (measured)", func(o outcome) string { return fmtS(sym(o).ComputeSeconds) }},
		column{"total", func(o outcome) string { return fmtS(sym(o).Total()) }},
		column{"comm share", func(o outcome) string { return fmtShare(sym(o).CommSeconds, sym(o).Total()) }},
	).sweep(pts...)
	if err != nil {
		return err
	}
	l1, l16 := sym(outs[0]), sym(outs[2])
	if l16.CommSeconds > 0 {
		r.Finding("symbolic communication shrank %.1fx from l=1 to l=16 (paper: >4x)", l1.CommSeconds/l16.CommSeconds)
	}
	if l16.Total() > 0 {
		r.Finding("total symbolic time improved %.1fx (paper: >2x)", l1.Total()/l16.Total())
	}
	numeric, err := runAll(opts.point(a, a, p, 1, core.Options{ForceBatches: 1}, "numeric"))
	if err != nil {
		return err
	}
	if mult := numeric[0].summary.Step(core.StepLocalMult).ComputeSeconds; mult > 0 {
		r.Finding("LOCALSYMBOLIC compute is %.1fx cheaper than LOCALMULTIPLY at l=1", mult/max(l1.ComputeSeconds, 1e-12))
	}
	return nil
}
