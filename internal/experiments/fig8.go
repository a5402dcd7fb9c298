package experiments

import (
	"fmt"

	"repro/internal/core"
)

func init() {
	register(&Experiment{
		ID:          "fig8",
		Title:       "Symbolic step: communication vs computation across layers",
		Description: "The symbolic estimator is communication-dominated, so layers speed it up even more than the numeric multiply.",
		Run:         runFig8,
	})
}

func runFig8(opts RunOpts) (*Report, error) {
	opts = opts.withDefaults()
	r := &Report{
		ID:    "fig8",
		Title: "Symbolic step breakdown for l ∈ {1, 4, 16}",
		PaperClaim: "Symbolic communication shrinks >4x from 1 to 16 layers, giving >2x total " +
			"symbolic speedup, because LOCALSYMBOLIC is much cheaper than LOCALMULTIPLY " +
			"while the broadcasts are identical.",
	}
	a, err := Workload(WLIsolatesSmall, opts.Scale)
	if err != nil {
		return nil, err
	}
	p := 64
	if opts.Scale == ScaleLarge {
		p = 256
	}
	tb := r.NewTable(fmt.Sprintf("symbolic step on %s (p=%d)", WLIsolatesSmall, p),
		"l", "comm s (modeled)", "comp s (measured)", "total", "comm share")
	var comm1, tot1, comm16, tot16 float64
	for _, l := range []int{1, 4, 16} {
		rr, err := execute(a, a, nil, opts.pins(p, l, core.Options{ForceBatches: 1, RunSymbolic: true}))
		if err != nil {
			return nil, err
		}
		st := rr.summary.Step(core.StepSymbolic)
		total := st.CommSeconds + st.ComputeSeconds
		share := 0.0
		if total > 0 {
			share = st.CommSeconds / total
		}
		tb.AddRow(fmt.Sprint(l), fmtS(st.CommSeconds), fmtS(st.ComputeSeconds),
			fmtS(total), fmt.Sprintf("%.0f%%", share*100))
		switch l {
		case 1:
			comm1, tot1 = st.CommSeconds, total
		case 16:
			comm16, tot16 = st.CommSeconds, total
		}
	}
	if comm16 > 0 {
		r.Finding("symbolic communication shrank %.1fx from l=1 to l=16 (paper: >4x)", comm1/comm16)
	}
	if tot16 > 0 {
		r.Finding("total symbolic time improved %.1fx (paper: >2x)", tot1/tot16)
	}
	// Compare against the numeric multiply: the symbolic step must be
	// comm-dominated relative to it.
	rr, err := execute(a, a, nil, opts.pins(p, 1, core.Options{ForceBatches: 1}))
	if err != nil {
		return nil, err
	}
	mult := rr.summary.Step(core.StepLocalMult).ComputeSeconds
	sym := tot1 - comm1
	if mult > 0 {
		r.Finding("LOCALSYMBOLIC compute is %.1fx cheaper than LOCALMULTIPLY at l=1", mult/maxf(sym, 1e-12))
	}
	return r, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
