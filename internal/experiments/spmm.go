package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/planner"
	"repro/internal/spmat"
)

func init() {
	register(&Experiment{
		ID:    "spmm",
		Title: "sparse×dense SpMM: SUMMA vs 1.5D ColA vs 1.5D InnerABC",
		claim: "Koanantakool et al. (IPDPS 2016) show sparse×dense wants a different family " +
			"than sparse×sparse: 1.5D schedules with c-fold replication move the sparse matrix " +
			"(ColA) or the panel (InnerABC) around a ring of p/c positions, beating SUMMA — " +
			"which must densify the panel and re-broadcast everything — once the panel is " +
			"tall-skinny.",
		run: runSpMMExperiment,
	})
}

// SpMMGraph is the sparse operand of the spmm experiment and gate shapes: a
// dense-ish unweighted R-MAT graph (the GNN-adjacency regime, nnz(A) ≫ n·d).
// Unweighted matters twice — integer values keep every distributed product
// exact in float64 so bit-identity against the serial reference is
// assertable, and the Table V analogues are either weighted (the protein
// networks) or too sparse relative to a feature panel for the 1.5D-vs-SUMMA
// tradeoff the experiment studies to be visible at laptop scale.
func SpMMGraph(sc Scale) *spmat.CSC {
	bump := map[Scale]int{ScaleTiny: 0, ScaleSmall: 2, ScaleLarge: 4}[sc]
	return genmat.SymmetricPermute(genmat.RMAT(genmat.RMATConfig{
		Scale: 8 + bump, EdgeFactor: 28, Symmetrize: true, Seed: 108,
	}), 208)
}

// spmmPanelWidth is the feature panel width per workload scale — narrow
// enough that the panel stays tall-skinny (the iterated-SpMM regime the 1.5D
// algorithms target) at every scale.
func spmmPanelWidth(sc Scale) int32 {
	return []int32{ScaleTiny: 8, ScaleSmall: 16, ScaleLarge: 32}[sc]
}

// PanelFor builds the deterministic tall-skinny dense feature panel paired
// with a sparse operand: a ~90%-filled small-integer panel (exact in float64,
// so distributed products over it are bit-identical to the serial reference).
func PanelFor(a *spmat.CSC, d int32) *spmat.DenseMat {
	return spmat.DenseFromCSC(genmat.TallSkinny(a.Cols, d, 0.9, 901))
}

// runSpMMExperiment multiplies the spmm workload by a tall-skinny dense
// feature panel with every algorithm family — the densified 2D/3D SUMMA arm
// and the 1.5D schedules across replication factors c — and compares their
// modeled communication, work units and bytes moved under the gate's
// objective, each checked bit-identical to the serial SpMM. It then shows
// the analytical planner's ranking for the shape.
func runSpMMExperiment(r *Report, opts RunOpts) error {
	const p = 16
	const summaL = 4
	a := SpMMGraph(opts.Scale)
	d := spmmPanelWidth(opts.Scale)
	panel := PanelFor(a, d)
	want := localmm.SpMMSerial(a, panel)

	var pts []point
	for _, algo := range planner.Algos {
		reps := planner.ReplicationsFor(p)
		if algo == planner.AlgoSUMMA {
			reps = []int{1}
		}
		for _, c := range reps {
			cCell := fmt.Sprint(c)
			if algo == planner.AlgoSUMMA {
				cCell = fmt.Sprintf("l=%d", summaL) // SUMMA replicates nothing; it runs in layers
			}
			pt := opts.point(a, nil, p, 0, core.Options{}, algo.String(), cCell)
			pt.panel, pt.pn.dense = panel, &planner.DenseConfig{Algo: algo, L: summaL, C: c, B: 1}
			pts = append(pts, pt)
		}
	}
	runs, err := r.sweepTable(fmt.Sprintf("rmat-dense · %dx%d panel (p=%d, staged, b=1)", a.Cols, d, p), []string{"algo", "c"},
		commCol, workCol, bytesCol,
		column{"model s", func(o outcome) string { return fmtS(o.model()) }},
	).sweep(pts...)
	if err != nil {
		return err
	}
	bitIdentical := true
	for _, o := range runs {
		if !spmat.DenseEqual(o.dense, want) {
			bitIdentical = false
			r.Finding("UNEXPECTED: %v c=%d differs from the serial SpMM reference", o.pn.dense.Algo, o.pn.dense.C)
		}
	}
	if bitIdentical {
		r.Finding("every algorithm family and replication factor is bit-identical to the serial SpMM reference")
	}
	summa := runs[slices.IndexFunc(runs, func(o outcome) bool { return o.pn.dense.Algo == planner.AlgoSUMMA })]
	best := slices.MinFunc(runs, func(x, y outcome) int { return cmp.Compare(x.model(), y.model()) })
	if best.pn.dense.Algo != planner.AlgoSUMMA {
		r.Finding("best 1.5D configuration (%v/c=%d) models %.3gx faster than densified SUMMA on the tall-skinny panel",
			best.pn.dense.Algo, best.pn.dense.C, summa.model()/best.model())
	} else {
		r.Finding("UNEXPECTED: densified SUMMA beat every 1.5D configuration on a tall-skinny panel")
	}

	// The planner's view of the same shape, under the gate objective.
	pl, err := planner.NewDense(a, d, planner.DenseInput{P: p, Machine: opts.machine()})
	if err != nil {
		return err
	}
	if staged := stagedCandidates(pl); len(staged) > 0 && staged[0].Feasible {
		pt := r.NewTable("planner ranking (staged, top 5)",
			"rank", "config", "model s", "one-time s", "per-iter s")
		for i, c := range staged[:min(5, len(staged))] {
			pt.AddRow(fmt.Sprintf("%d", i+1), c.DenseConfig.String(), fmtS(c.ModelSeconds),
				fmtS(c.OneTimeSeconds), fmtS(c.PerIterSeconds))
		}
		r.Finding("planner pick for the tall-skinny shape: %s", staged[0].DenseConfig)
	}
	return nil
}
