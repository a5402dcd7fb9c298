package experiments

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

func init() {
	const scalingClaim = "10-17x total speedup across a 16x core increase; b at least halves per " +
		"4x nodes; A-Broadcast can scale super-linearly because fewer batches " +
		"re-broadcast A fewer times."
	register(&Experiment{
		ID:    "fig6",
		Title: "Strong scaling: Friendster-like and Isolates-small-like",
		claim: scalingClaim,
		run: func(r *Report, opts RunOpts) error {
			return runScaling(r, opts, []string{WLFriendster, WLIsolatesSmall}, false)
		},
	})
	register(&Experiment{
		ID:    "fig7",
		Title: "Strong scaling: Isolates-like and Metaclust50-like",
		claim: scalingClaim,
		run: func(r *Report, opts RunOpts) error {
			return runScaling(r, opts, []string{WLIsolates, WLMetaclust50}, true)
		},
	})
	register(&Experiment{
		ID:    "fig9",
		Title: "Parallel efficiency of BatchedSUMMA3D",
		claim: "Efficiency stays near (or above) 1 for three of the four matrices; the " +
			"sparser Metaclust drops earliest because communication dominates sooner.",
		run: runFig9,
	})
}

// scalingPs returns the process counts for strong-scaling runs. They start
// at p=64 so that even l=16 grids have non-degenerate layers (p=16 with 16
// layers would make every process row a single rank and the broadcasts
// free). l=16 needs p/16 to be a perfect square.
func scalingPs(sc Scale, big bool) []int {
	switch {
	case sc == ScaleTiny:
		return []int{64, 256}
	case sc == ScaleLarge && big:
		return []int{256, 1024, 4096}
	}
	return []int{64, 256, 1024}
}

// scalingCurve returns a strong-scaling curve, one point per p labelled by
// it, at l=16 with a fixed per-process memory budget: aggregate memory grows
// with p, so b falls — the super-linear speedup mechanism of Sec. V-E.
func scalingCurve(opts RunOpts, wl string, big bool) []point {
	// One workload scale up: strong scaling divides the work by up to 1024
	// ranks, and per-rank kernels must stay large enough to time reliably.
	a := mustWorkload(wl, scaleUp(opts.Scale))
	ps := scalingPs(opts.Scale, big)
	const l = 16
	// Fix the per-process budget so the smallest run needs several batches
	// (the paper's smallest configurations run b ≈ 8–125).
	perProc := memoryForBatches(a, a, ps[0], l, 10, 24) / int64(ps[0])
	var pts []point
	for _, p := range ps {
		pts = append(pts, opts.point(a, a, p, l, core.Options{MemBytes: perProc * int64(p), RunSymbolic: true}, fmt.Sprint(p)))
	}
	return pts
}

// runScaling tables the step breakdown of each workload's strong-scaling
// curve with l=16 and symbolic batch selection.
func runScaling(r *Report, opts RunOpts, workloads []string, big bool) error {
	cols := slices.Concat([]column{{"modeled cores", func(o outcome) string { return coresLabel(o.pn.p) }}}, breakdown,
		[]column{{"speedup vs first", func(o outcome) string {
			if o.pn.p != o.base.pn.p && o.total() > 0 {
				return fmt.Sprintf("%.1fx", o.base.total()/o.total())
			}
			return "1.0x"
		}}})
	for _, wl := range workloads {
		runs, err := r.sweepTable(fmt.Sprintf("%s (A², l=16)", wl), []string{"procs"}, cols...).sweep(scalingCurve(opts, wl, big)...)
		if err != nil {
			return err
		}
		first, last := runs[0], runs[len(runs)-1]
		factor := float64(last.pn.p) / float64(first.pn.p)
		if t := last.total(); t > 0 {
			r.Finding("%s: %.1fx total speedup over a %.0fx process increase; b fell %d → %d",
				wl, first.total()/t, factor, first.b, last.b)
		}
		if ab := stepSeconds(last.summary)[core.StepABcast]; ab > 0 {
			r.Finding("%s: A-Broadcast improved %.1fx (super-linear when > %.0fx, thanks to fewer batches)",
				wl, stepSeconds(first.summary)[core.StepABcast]/ab, factor)
		}
	}
	return nil
}

// runFig9 tables each large matrix's parallel efficiency P1·T1/(P2·T2)
// relative to the smallest run of its strong-scaling curve.
func runFig9(r *Report, opts RunOpts) error {
	efficiency := func(o outcome) float64 {
		if o.pn.p != o.base.pn.p && o.total() > 0 {
			return float64(o.base.pn.p) * o.base.total() / (float64(o.pn.p) * o.total())
		}
		return 1
	}
	tb := r.sweepTable("efficiency relative to the smallest run", []string{"matrix", "procs"},
		totalCol.as("total s"),
		column{"efficiency", func(o outcome) string { return fmt.Sprintf("%.2f", efficiency(o)) }},
		shareCol)
	lowest, lowestWL := 0.0, ""
	for _, wl := range []string{WLFriendster, WLIsolatesSmall, WLIsolates, WLMetaclust50} {
		pts := scalingCurve(opts, wl, wl == WLIsolates || wl == WLMetaclust50)
		for i := range pts {
			pts[i].labels = append([]string{wl}, pts[i].labels...)
		}
		runs, err := tb.sweep(pts...)
		if err != nil {
			return err
		}
		// The sparsest matrix (Metaclust50-like) should have the lowest
		// final efficiency.
		if e := efficiency(runs[len(runs)-1]); lowestWL == "" || e < lowest {
			lowest, lowestWL = e, wl
		}
	}
	r.Finding("lowest final efficiency: %s at %.2f (paper: Metaclust drops to 0.4 at 262K cores because it is the sparsest)",
		lowestWL, lowest)
	return nil
}
