package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
)

func init() {
	register(&Experiment{
		ID:    "fig4",
		Title: "Impact of layers (l) and batches (b) on each step",
		claim: "A-Bcast grows ~linearly with b and shrinks ~√l with layers; B-Bcast is " +
			"b-independent; Local-Multiply shrinks with l; AllToAll-Fiber and Merge-Fiber " +
			"grow with l; the best total sits at intermediate l (16 in the paper).",
		run: runFig4,
	})
	register(&Experiment{
		ID:    "fig5",
		Title: "A-Broadcast time vs number of layers (observed vs ideal √l)",
		claim: "Observed A-Broadcast time closely follows the ideal √l decrease " +
			"(factor 2 per 4x layers).",
		run: runFig5,
	})
}

// fig4Layers and fig4Batches are the sweep axes (scaled down from the
// paper's l ∈ {1,4,16,64}, b ∈ {2..64} to keep the run short).
func fig4Axes(sc Scale) (layers, batches []int, p int) {
	switch sc {
	case ScaleTiny:
		return []int{1, 4}, []int{2, 4}, 16
	case ScaleLarge:
		return []int{1, 4, 16}, []int{2, 8, 16, 32}, 1024
	default:
		return []int{1, 4, 16}, []int{2, 4, 8}, 256
	}
}

// runFig4 sweeps l × b on the Friendster and Isolates-small analogues. The
// batch counts are forced, so the symbolic pass does not run and the
// breakdown leaves out its column.
func runFig4(r *Report, opts RunOpts) error {
	layers, batches, p := fig4Axes(opts.Scale)
	for _, wl := range []string{WLFriendster, WLIsolatesSmall} {
		a := mustWorkload(wl, opts.Scale)
		var pts []point
		for _, l := range layers {
			for _, b := range batches {
				pts = append(pts, opts.point(a, a, p, l, core.Options{ForceBatches: b}, fmt.Sprint(l)))
			}
		}
		outs, err := r.sweepTable(fmt.Sprintf("%s (A², p=%d, modeled %s cores)", wl, p, coresLabel(p)),
			[]string{"l"}, slices.Delete(slices.Clone(breakdown), 1, 2)...).sweep(pts...)
		if err != nil {
			return err
		}
		r.Finding("%s: best total at l=%d for p=%d (paper: intermediate layer counts win once communication matters)", wl, fastest(outs).pn.l, p)
	}
	return nil
}

func runFig5(r *Report, opts RunOpts) error {
	a := mustWorkload(WLFriendster, opts.Scale)
	p := 64
	if opts.Scale == ScaleLarge {
		p = 256
	}
	// The ideal curve is the sweep's l=1 A-Broadcast time over √l.
	observed := func(o outcome) float64 { return o.summary.Step(core.StepABcast).CommSeconds }
	ideal := func(o outcome) float64 { return observed(*o.base) / math.Sqrt(float64(o.pn.l)) }
	ratio := func(o outcome) float64 {
		if id := ideal(o); id > 0 {
			return observed(o) / id
		}
		return 0
	}
	for _, b := range []int{2, 8} {
		var pts []point
		for _, l := range []int{1, 4, 16} {
			pts = append(pts, opts.point(a, a, p, l, core.Options{ForceBatches: b}, fmt.Sprint(l)))
		}
		outs, err := r.sweepTable(fmt.Sprintf("b=%d (p=%d)", b, p), []string{"l"},
			column{"A-Bcast modeled s", func(o outcome) string { return fmtS(observed(o)) }},
			column{"ideal (t1/√l)", func(o outcome) string { return fmtS(ideal(o)) }},
			column{"observed/ideal", func(o outcome) string { return fmt.Sprintf("%.2f", ratio(o)) }},
		).sweep(pts...)
		if err != nil {
			return err
		}
		worst := 0.0
		for _, o := range outs {
			worst = max(worst, math.Abs(ratio(o)-1))
		}
		r.Finding("b=%d: observed A-Bcast stays within %.0f%% of the ideal √l curve", b, worst*100)
	}
	return nil
}
