package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
)

func init() {
	register(&Experiment{
		ID:          "fig4",
		Title:       "Impact of layers (l) and batches (b) on each step",
		Description: "Step-time breakdown sweeping l and b for Friendster-like and Isolates-small-like squaring.",
		Run:         runFig4,
	})
	register(&Experiment{
		ID:          "fig5",
		Title:       "A-Broadcast time vs number of layers (observed vs ideal √l)",
		Description: "With fixed b, A-Broadcast should shrink ∝ √l as layers grow.",
		Run:         runFig5,
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

func runFig4(opts RunOpts) (*Report, error) {
	opts = opts.withDefaults()
	r := &Report{
		ID:    "fig4",
		Title: "Step breakdown across l × b",
		PaperClaim: "A-Bcast grows ~linearly with b and shrinks ~√l with layers; B-Bcast is " +
			"b-independent; Local-Multiply shrinks with l; AllToAll-Fiber and Merge-Fiber " +
			"grow with l; the best total sits at intermediate l (16 in the paper).",
	}
	layers, batches, p := fig4Axes(opts.Scale)
	for _, wl := range []string{WLFriendster, WLIsolatesSmall} {
		a, err := Workload(wl, opts.Scale)
		if err != nil {
			return nil, err
		}
		tb := r.NewTable(fmt.Sprintf("%s (A², p=%d, modeled %s cores)", wl, p, coresLabel(p)),
			"l", "b", "A-Bcast", "B-Bcast", "LocalMult", "MergeLayer", "AllToAll", "MergeFiber", "total")
		best := math.Inf(1)
		bestL := 0
		for _, l := range layers {
			for _, b := range batches {
				rr, err := execute(a, a, nil, opts.pins(p, l, core.Options{ForceBatches: b}))
				if err != nil {
					return nil, err
				}
				ss := stepSeconds(rr.summary)
				total := totalSeconds(rr.summary) - ss[core.StepSymbolic]
				tb.AddRow(fmt.Sprint(l), fmt.Sprint(rr.b),
					fmtS(ss[core.StepABcast]), fmtS(ss[core.StepBBcast]),
					fmtS(ss[core.StepLocalMult]), fmtS(ss[core.StepMergeLayer]),
					fmtS(ss[core.StepAllToAll]), fmtS(ss[core.StepMergeFiber]), fmtS(total))
				if total < best {
					best, bestL = total, l
				}
			}
		}
		r.Finding("%s: best total at l=%d for p=%d (paper: intermediate layer counts win once communication matters)", wl, bestL, p)
	}
	return r, nil
}

func runFig5(opts RunOpts) (*Report, error) {
	opts = opts.withDefaults()
	r := &Report{
		ID:    "fig5",
		Title: "A-Broadcast time vs l at fixed b",
		PaperClaim: "Observed A-Broadcast time closely follows the ideal √l decrease " +
			"(factor 2 per 4x layers).",
	}
	a, err := Workload(WLFriendster, opts.Scale)
	if err != nil {
		return nil, err
	}
	p := 64
	if opts.Scale == ScaleLarge {
		p = 256
	}
	layers := []int{1, 4, 16}
	for _, b := range []int{2, 8} {
		tb := r.NewTable(fmt.Sprintf("b=%d (p=%d)", b, p),
			"l", "A-Bcast modeled s", "ideal (t1/√l)", "observed/ideal")
		var t1 float64
		worst := 0.0
		for _, l := range layers {
			rr, err := execute(a, a, nil, opts.pins(p, l, core.Options{ForceBatches: b}))
			if err != nil {
				return nil, err
			}
			obs := rr.summary.Step(core.StepABcast).CommSeconds
			if l == 1 {
				t1 = obs
			}
			ideal := t1 / math.Sqrt(float64(l))
			ratio := 0.0
			if ideal > 0 {
				ratio = obs / ideal
			}
			if d := math.Abs(ratio - 1); d > worst {
				worst = d
			}
			tb.AddRow(fmt.Sprint(l), fmtS(obs), fmtS(ideal), fmt.Sprintf("%.2f", ratio))
		}
		r.Finding("b=%d: observed A-Bcast stays within %.0f%% of the ideal √l curve", b, worst*100)
	}
	return r, nil
}
