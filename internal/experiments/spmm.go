package experiments

import (
	"fmt"

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
		Description: "Multiplies a gate workload by a tall-skinny dense feature panel with every " +
			"algorithm family — the densified 2D/3D SUMMA arm and the 1.5D schedules across " +
			"replication factors c — and compares modeled communication, work units, and bytes " +
			"moved under the gate's deterministic objective. Also shows the analytical planner's " +
			"pick for the shape and verifies every configuration is bit-identical to the serial " +
			"SpMM reference.",
		Run: runSpMMExperiment,
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
	switch sc {
	case ScaleTiny:
		return 8
	case ScaleLarge:
		return 32
	default:
		return 16
	}
}

// PanelFor builds the deterministic tall-skinny dense feature panel paired
// with a sparse operand: a ~90%-filled small-integer panel (exact in float64,
// so distributed products over it are bit-identical to the serial reference).
func PanelFor(a *spmat.CSC, d int32) *spmat.DenseMat {
	return spmat.DenseFromCSC(genmat.TallSkinny(a.Cols, d, 0.9, 901))
}

// runSpMMExperiment renders the algorithm-family comparison.
func runSpMMExperiment(opts RunOpts) (*Report, error) {
	opts = opts.withDefaults()
	r := &Report{
		ID:    "spmm",
		Title: "sparse×dense SpMM: SUMMA vs 1.5D ColA vs 1.5D InnerABC",
		PaperClaim: "Koanantakool et al. (IPDPS 2016) show sparse×dense wants a different family " +
			"than sparse×sparse: 1.5D schedules with c-fold replication move the sparse matrix " +
			"(ColA) or the panel (InnerABC) around a ring of p/c positions, beating SUMMA — " +
			"which must densify the panel and re-broadcast everything — once the panel is " +
			"tall-skinny.",
	}

	const p = 16
	const summaL = 4
	a := SpMMGraph(opts.Scale)
	d := spmmPanelWidth(opts.Scale)
	panel := PanelFor(a, d)
	want := localmm.SpMMSerial(a, panel)

	type arm struct {
		algo core.Algo
		c    int
	}
	var arms []arm
	reps := planner.ReplicationsFor(p)
	for _, name := range planner.DenseAlgos {
		algo, err := core.ParseAlgo(name)
		if err != nil {
			return nil, err
		}
		if algo == core.AlgoSUMMA {
			arms = append(arms, arm{algo: algo, c: 1})
			continue
		}
		for _, c := range reps {
			arms = append(arms, arm{algo: algo, c: c})
		}
	}

	tb := r.NewTable(fmt.Sprintf("rmat-dense · %dx%d panel (p=%d, staged, b=1)", a.Cols, d, p),
		"algo", "c", "comm s", "work units", "bytes moved", "model s")
	models := make(map[string]float64)
	bitIdentical := true
	for _, ar := range arms {
		rr, err := execute(a, nil, panel, opts.pins(p, summaL, core.Options{Algo: ar.algo, Replication: ar.c, ForceBatches: 1}))
		if err != nil {
			return nil, fmt.Errorf("spmm %v c=%d: %w", ar.algo, ar.c, err)
		}
		if !spmat.DenseEqual(rr.dense, want) {
			bitIdentical = false
			r.Finding("UNEXPECTED: %v c=%d differs from the serial SpMM reference", ar.algo, ar.c)
		}
		key := fmt.Sprintf("%v/c=%d", ar.algo, ar.c)
		models[key] = rr.model()
		cCell := fmt.Sprintf("%d", ar.c)
		if ar.algo == core.AlgoSUMMA {
			cCell = fmt.Sprintf("l=%d", summaL)
		}
		tb.AddRow(ar.algo.String(), cCell, fmtS(rr.comm), fmt.Sprintf("%d", rr.work),
			fmt.Sprintf("%d", rr.bytes), fmtS(rr.model()))
	}
	if bitIdentical {
		r.Finding("every algorithm family and replication factor is bit-identical to the serial SpMM reference")
	}
	if summa, ok := models["summa/c=1"]; ok {
		best, bestKey := summa, "summa"
		for k, v := range models {
			if v < best {
				best, bestKey = v, k
			}
		}
		if bestKey != "summa" {
			r.Finding("best 1.5D configuration (%s) models %.3gx faster than densified SUMMA on the tall-skinny panel",
				bestKey, summa/best)
		} else {
			r.Finding("UNEXPECTED: densified SUMMA beat every 1.5D configuration on a tall-skinny panel")
		}
	}

	// The planner's view of the same shape, under the gate objective.
	pl, err := densePlanFor(a, d, p, opts.Machine)
	if err != nil {
		return nil, err
	}
	if pick := pl.Best(); pick != nil {
		pt := r.NewTable("planner ranking (staged, top 5)",
			"rank", "config", "model s", "one-time s", "per-iter s")
		show := len(pl.Candidates)
		if show > 5 {
			show = 5
		}
		for i := 0; i < show; i++ {
			c := pl.Candidates[i]
			pt.AddRow(fmt.Sprintf("%d", i+1), c.DenseConfig.String(), fmtS(c.ModelSeconds),
				fmtS(c.OneTimeSeconds), fmtS(c.PerIterSeconds))
		}
		r.Finding("planner pick for the tall-skinny shape: %s", pick.DenseConfig)
	}
	return r, nil
}
