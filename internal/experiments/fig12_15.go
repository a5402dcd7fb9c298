package experiments

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/costmodel"
)

func init() {
	register(&Experiment{
		ID:    "fig12",
		Title: "Hyper-threading at extreme scale",
		claim: "HT cuts computation (231→81 s at l=16) but inflates communication " +
			"(147→209 s); the total still improves, and the benefit is larger when " +
			"compute dominates (l=64).",
		run: runFig12,
	})
	register(&Experiment{
		ID:    "fig13",
		Title: "KNL vs Haswell on the same network",
		claim: "Computation 2.1x faster and communication 1.4x faster on Haswell; " +
			"communication takes a larger share of the total than on KNL.",
		run: runFig13,
	})
	register(&Experiment{
		ID:    "fig14",
		Title: "Small matrices at low concurrency (Eukarya-like)",
		claim: "On 16 nodes, extra layers buy little (communication is insignificant); " +
			"on 256 nodes, l=4 already helps while l=16 overshoots as AllToAll-Fiber " +
			"becomes the bottleneck.",
		run: runFig14,
	})
	register(&Experiment{
		ID:    "fig15",
		Title: "BatchedSUMMA3D with the sort-free hash kernels",
		claim: "Computation >8x faster with hash-based multiply and merge; " +
			"communication slightly faster too.",
		run: runFig15,
	})
}

// onMachine returns pt charged to machine m (unamplified) instead of the
// run's machine, labelled by m's name after its other labels.
func onMachine(pt point, m costmodel.Machine) point {
	pt.pn.machine = m
	pt.labels = append(slices.Clip(pt.labels), m.Name)
	return pt
}

// runFig12 sets KNL against KNL with 4 hardware threads per core on the
// Metaclust50 analogue: the threads speed computation but slow
// communication, worthwhile while compute dominates.
func runFig12(r *Report, opts RunOpts) error {
	a := mustWorkload(WLMetaclust50, opts.Scale)
	const p = 64
	knl, ht := costmodel.CoriKNL(), costmodel.CoriKNLHyperThreads()
	tb := r.sweepTable("computation vs communication (seconds)", []string{"l", "machine"},
		compCol.as("computation"), commCol.as("communication"), totalCol)
	for _, l := range []int{16, 64} {
		if l == 64 && opts.Scale == ScaleTiny {
			continue // 64 layers needs p ≥ 64 with square layers
		}
		pt := opts.point(a, a, p, l, core.Options{ForceBatches: 2}, fmt.Sprint(l))
		runs, err := tb.sweep(onMachine(pt, knl), onMachine(pt, ht))
		if err != nil {
			return err
		}
		base, hyper := runs[0], runs[1]
		r.Finding("l=%d: HT computation %.1fx faster, communication %.1fx slower, total %s",
			l, base.comp()/max(hyper.comp(), 1e-12), hyper.comm/max(base.comm, 1e-12),
			map[bool]string{true: "improves", false: "regresses"}[hyper.total() < base.total()])
	}
	return nil
}

// runFig13 runs one grid on KNL and Haswell: faster cores shift the
// bottleneck to communication, increasing the value of communication
// avoidance.
func runFig13(r *Report, opts RunOpts) error {
	a := mustWorkload(WLIsolatesSmall, opts.Scale)
	pt := opts.point(a, a, 64, 16, core.Options{ForceBatches: 2})
	runs, err := r.sweepTable("same grid, two machines", []string{"machine"},
		compCol.as("computation"), commCol.as("communication"), shareCol).
		sweep(onMachine(pt, costmodel.CoriKNL()), onMachine(pt, costmodel.CoriHaswell()))
	if err != nil {
		return err
	}
	knl, hsw := runs[0], runs[1]
	knlComp, hswComp := knl.comp(), hsw.comp()
	r.Finding("computation %.1fx faster on Haswell (paper: 2.1x); communication %.1fx (paper: 1.4x)",
		knlComp/max(hswComp, 1e-12), knl.comm/max(hsw.comm, 1e-12))
	r.Finding("communication share rose from %.0f%% (KNL) to %.0f%% (Haswell): faster cores make CA more valuable",
		knl.comm/max(knlComp+knl.comm, 1e-12)*100, hsw.comm/max(hswComp+hsw.comm, 1e-12)*100)
	return nil
}

// runFig14 sweeps layer counts on the smallest matrix at low concurrency:
// layers only help once communication matters.
func runFig14(r *Report, opts RunOpts) error {
	a := mustWorkload(WLEukarya, opts.Scale)
	for _, p := range []int{16, 256} {
		var pts []point
		for _, l := range []int{1, 4, 16} {
			pts = append(pts, opts.point(a, a, p, l, core.Options{ForceBatches: 1, RunSymbolic: true}, fmt.Sprint(l)))
		}
		runs, err := r.sweepTable(fmt.Sprintf("p=%d (modeled %s cores)", p, coresLabel(p)), []string{"l"},
			batchCol, commCol, compCol, totalCol).sweep(pts...)
		if err != nil {
			return err
		}
		r.Finding("p=%d: best layer count l=%d", p, fastest(runs).pn.l)
	}
	return nil
}

// runFig15 runs the new sort-free hash pipeline on the Eukarya analogue
// with 4 layers: computation against communication. The previous sorted
// heap pipeline it is set against in the paper is not in the engine; the
// kernels' half of that comparison is localmm's kernel benchmark.
func runFig15(r *Report, opts RunOpts) error {
	// One workload scale up: the kernel-generation gap grows with block
	// size, and the paper's Fig 15 blocks are orders of magnitude larger.
	a := mustWorkload(WLEukarya, scaleUp(opts.Scale))
	const l = 4
	tb := r.sweepTable("Eukarya-like A², 4 layers, no batching", []string{"procs", "pipeline"},
		compCol.as("computation"), commCol.as("communication"))
	// Low process counts keep per-rank blocks big enough that kernel choice
	// dominates (the paper's Fig 15 uses 16 and 256 nodes on a matrix ~1000x
	// larger; at our scale p=64 would shrink blocks to a few columns).
	ps := []int{4, 16}
	if opts.Scale == ScaleLarge {
		ps = []int{16, 64}
	}
	for _, p := range ps {
		runs, err := tb.sweep(opts.point(a, a, p, l, core.Options{ForceBatches: 1},
			fmt.Sprint(p), "BatchedSUMMA3D (new: hash, unsorted)"))
		if err != nil {
			return err
		}
		r.Finding("p=%d: computation is %.0f%% of computation + communication", p, 100*runs[0].comp()/max(runs[0].comp()+runs[0].comm, 1e-12))
	}
	tb.Notes = append(tb.Notes, "the previous SUMMA3D's heap kernel + heap merge are measured against the hash pair by make bench-kernels (BENCH_kernels.json)")
	return nil
}
