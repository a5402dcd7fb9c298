package experiments

import (
	"fmt"

	"repro/internal/core"
)

func init() {
	register(&Experiment{
		ID:          "fig6",
		Title:       "Strong scaling: Friendster-like and Isolates-small-like",
		Description: "Total and per-step times across a 16x increase in processes with a fixed per-process memory budget; batch counts fall as aggregate memory grows.",
		Run: func(o RunOpts) (*Report, error) {
			return runScaling(o, "fig6", []string{WLFriendster, WLIsolatesSmall}, false)
		},
	})
	register(&Experiment{
		ID:          "fig7",
		Title:       "Strong scaling: Isolates-like and Metaclust50-like",
		Description: "Same experiment on the two biggest matrices.",
		Run: func(o RunOpts) (*Report, error) {
			return runScaling(o, "fig7", []string{WLIsolates, WLMetaclust50}, true)
		},
	})
	register(&Experiment{
		ID:          "fig9",
		Title:       "Parallel efficiency of BatchedSUMMA3D",
		Description: "Efficiency P1·T1/(P2·T2) relative to the smallest run for the four large matrices.",
		Run:         runFig9,
	})
}

// scalingPs returns the process counts for strong-scaling runs. They start
// at p=64 so that even l=16 grids have non-degenerate layers (p=16 with 16
// layers would make every process row a single rank and the broadcasts
// free). l=16 needs p/16 to be a perfect square.
func scalingPs(sc Scale, big bool) []int {
	switch sc {
	case ScaleTiny:
		return []int{64, 256}
	case ScaleLarge:
		if big {
			return []int{256, 1024, 4096}
		}
		return []int{64, 256, 1024}
	default:
		return []int{64, 256, 1024}
	}
}

// scalingRun is one point of a strong-scaling curve.
type scalingRun struct {
	p     int
	b     int
	steps map[string]float64
	total float64
	comm  float64
	comp  float64
}

// runScalingCurve sweeps p with a fixed per-process memory budget (aggregate
// memory grows with p, so b falls — the super-linear speedup mechanism of
// Sec. V-E).
func runScalingCurve(opts RunOpts, wl string, big bool) ([]scalingRun, error) {
	// One workload scale up: strong scaling divides the work by up to 1024
	// ranks, and per-rank kernels must stay large enough to time reliably.
	a, err := Workload(wl, scaleUp(opts.Scale))
	if err != nil {
		return nil, err
	}
	ps := scalingPs(opts.Scale, big)
	l := 16
	// Fix the per-process budget so the smallest run needs several batches
	// (the paper's smallest configurations run b ≈ 8–125).
	perProc := memoryForBatches(a, a, ps[0], l, 10, 24) / int64(ps[0])
	var out []scalingRun
	for _, p := range ps {
		rr, err := execute(a, a, nil, opts.pins(p, l, core.Options{MemBytes: perProc * int64(p), RunSymbolic: true}))
		if err != nil {
			return nil, err
		}
		out = append(out, scalingRun{
			p: p, b: rr.b,
			steps: stepSeconds(rr.summary),
			total: totalSeconds(rr.summary),
			comm:  rr.comm,
			comp:  computeSeconds(rr.summary),
		})
	}
	return out, nil
}

func runScaling(opts RunOpts, id string, workloads []string, big bool) (*Report, error) {
	opts = opts.withDefaults()
	r := &Report{
		ID:    id,
		Title: "Strong scaling with l=16 and symbolic batch selection",
		PaperClaim: "10-17x total speedup across a 16x core increase; b at least halves per " +
			"4x nodes; A-Broadcast can scale super-linearly because fewer batches " +
			"re-broadcast A fewer times.",
	}
	for _, wl := range workloads {
		runs, err := runScalingCurve(opts, wl, big)
		if err != nil {
			return nil, err
		}
		tb := r.NewTable(fmt.Sprintf("%s (A², l=16)", wl),
			"procs", "modeled cores", "b", "Symbolic", "A-Bcast", "B-Bcast", "LocalMult",
			"MergeLayer", "AllToAll", "MergeFiber", "total", "speedup vs first")
		first := runs[0]
		for _, run := range runs {
			sp := "1.0x"
			if run.p != first.p && run.total > 0 {
				sp = fmtX(first.total / run.total)
			}
			tb.AddRow(fmt.Sprint(run.p), coresLabel(run.p), fmt.Sprint(run.b),
				fmtS(run.steps[core.StepSymbolic]), fmtS(run.steps[core.StepABcast]),
				fmtS(run.steps[core.StepBBcast]), fmtS(run.steps[core.StepLocalMult]),
				fmtS(run.steps[core.StepMergeLayer]), fmtS(run.steps[core.StepAllToAll]),
				fmtS(run.steps[core.StepMergeFiber]), fmtS(run.total), sp)
		}
		last := runs[len(runs)-1]
		factor := float64(last.p) / float64(first.p)
		if last.total > 0 {
			r.Finding("%s: %.1fx total speedup over a %.0fx process increase; b fell %d → %d",
				wl, first.total/last.total, factor, first.b, last.b)
		}
		if ab := last.steps[core.StepABcast]; ab > 0 {
			r.Finding("%s: A-Broadcast improved %.1fx (super-linear when > %.0fx, thanks to fewer batches)",
				wl, first.steps[core.StepABcast]/ab, factor)
		}
	}
	return r, nil
}

func runFig9(opts RunOpts) (*Report, error) {
	opts = opts.withDefaults()
	r := &Report{
		ID:    "fig9",
		Title: "Parallel efficiency",
		PaperClaim: "Efficiency stays near (or above) 1 for three of the four matrices; the " +
			"sparser Metaclust drops earliest because communication dominates sooner.",
	}
	tb := r.NewTable("efficiency relative to the smallest run",
		"matrix", "procs", "total s", "efficiency", "comm share")
	type eff struct {
		wl   string
		last float64
	}
	var effs []eff
	for _, wl := range []string{WLFriendster, WLIsolatesSmall, WLIsolates, WLMetaclust50} {
		big := wl == WLIsolates || wl == WLMetaclust50
		runs, err := runScalingCurve(opts, wl, big)
		if err != nil {
			return nil, err
		}
		first := runs[0]
		var lastE float64
		for _, run := range runs {
			e := 1.0
			if run.p != first.p && run.total > 0 {
				e = (float64(first.p) * first.total) / (float64(run.p) * run.total)
			}
			lastE = e
			share := 0.0
			if run.total > 0 {
				share = run.comm / run.total
			}
			tb.AddRow(wl, fmt.Sprint(run.p), fmtS(run.total),
				fmt.Sprintf("%.2f", e), fmt.Sprintf("%.0f%%", share*100))
		}
		effs = append(effs, eff{wl: wl, last: lastE})
	}
	// The sparsest matrix (Metaclust50-like) should have the lowest final
	// efficiency.
	lowest := effs[0]
	for _, e := range effs {
		if e.last < lowest.last {
			lowest = e
		}
	}
	r.Finding("lowest final efficiency: %s at %.2f (paper: Metaclust drops to 0.4 at 262K cores because it is the sparsest)",
		lowest.wl, lowest.last)
	return r, nil
}
