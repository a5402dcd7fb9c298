package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/spmat"
)

// This file implements the CI performance-regression gate: a set of pinned
// fig-6/fig-8 shapes whose *modeled* critical-path seconds are fully
// deterministic — modeled α–β communication from seeded workloads plus
// work units converted at a pinned rate — so a >tolerance change between two
// runs is a real regression (more bytes moved, more work performed, worse
// attribution), never machine noise. Measured wall times are deliberately
// excluded: the gate must produce the same numbers on a laptop and a CI
// runner. Overlapped (Pipeline=true) shapes depend on measured compute for
// their hidden share, so they are reported for visibility but never gated.

// GateSecPerWorkUnit is the pinned conversion from abstract work units
// (flops, merged nonzeros) to modeled seconds. It is stored in the report so
// baselines self-describe; comparing reports with different rates is
// refused. Defined as the planner's default rate so the autotuner's ranking
// objective and the gate's regression metric can never drift apart.
const GateSecPerWorkUnit = planner.DefaultSecPerWork

// GateTolerance is the default relative regression threshold.
const GateTolerance = 0.05

// gateShape pins one benchmark point.
type gateShape struct {
	name     string
	wl       string
	p, l, b  int
	symbolic bool
	pipeline bool
	format   spmat.Format
	sparse   mpi.SparseMode
	// d > 0 selects the sparse×dense path: MultiplyDense runs dense — which
	// also holds the shape's batch count and schedule — on the SpMMGraph
	// workload with a d-wide feature panel instead of the sparse pipeline
	// (wl only labels it).
	dense planner.DenseConfig
	d     int
	// machine overrides the gate's default comm-amplified Cori-KNL model:
	// "local" pins costmodel.LocalHost(), the work-dominated regime where
	// compute savings (not wire bytes) decide the modeled critical path.
	machine string
}

// gateShapes are the pinned fig-6/fig-8 shapes the nightly gate runs, plus
// the hypersparse (Rice-kmers AAᵀ) shape in both storage formats so the
// doubly-compressed path is guarded: neither shape may regress against its
// baseline, and CompareGate additionally enforces the cross-shape invariant
// that the DCSC shape's modeled work units stay at or below the CSC
// shape's (the O(cols) column-scan savings must never silently invert).
// The staged shapes are gated; the overlapped shape documents the
// hidden-seconds ablation and is informational. The legacy shapes pin
// FormatCSC — their baselines predate the format knob and must stay
// byte-identical to it.
var gateShapes = []gateShape{
	{name: "fig6-friendster-staged", wl: WLFriendster, p: 64, l: 16, b: 4, symbolic: true, format: spmat.FormatCSC},
	{name: "fig6-isolates-small-staged", wl: WLIsolatesSmall, p: 64, l: 16, b: 4, symbolic: true, format: spmat.FormatCSC},
	{name: "fig8-symbolic-staged", wl: WLIsolatesSmall, p: 64, l: 16, b: 1, symbolic: true, format: spmat.FormatCSC},
	{name: "fig6-friendster-overlapped", wl: WLFriendster, p: 64, l: 16, b: 4, symbolic: true, pipeline: true, format: spmat.FormatCSC},
	{name: "hyper-kmers-csc-staged", wl: WLRiceKmers, p: 64, l: 16, b: 2, symbolic: true, format: spmat.FormatCSC},
	{name: "hyper-kmers-dcsc-staged", wl: WLRiceKmers, p: 64, l: 16, b: 2, symbolic: true, format: spmat.FormatDCSC},
	{name: "hyper-kmers-sparse-staged", wl: WLRiceKmers, p: 64, l: 16, b: 2, symbolic: true, format: spmat.FormatDCSC, sparse: mpi.SparseAuto},
	// Fiber-merge twins: the hypersparse kmers workload on the unamplified
	// local-host machine, where modeled work — not wire bytes — dominates
	// the critical path. This is the regime the DCSC-preserving Merge-Fiber
	// targets: the CSC twin pays the dense q·cols column scan in the fiber
	// merge, the DCSC twin scans only occupied columns. CompareGate enforces
	// that the DCSC twin's modeled critical path undercuts the CSC twin's by
	// more than 5%, so the doubly-compressed merge's win is a gated number,
	// not a narrative.
	{name: "fibermerge-kmers-csc", wl: WLRiceKmers, p: 64, l: 16, b: 2, symbolic: true, format: spmat.FormatCSC, machine: "local"},
	{name: "fibermerge-kmers-dcsc", wl: WLRiceKmers, p: 64, l: 16, b: 2, symbolic: true, format: spmat.FormatDCSC, machine: "local"},
	// Sparse×dense shapes: the 1.5D schedules on the spmm workload (dense
	// unweighted R-MAT · tall-skinny feature panel). The staged shapes are
	// gated; the pipelined twin documents the dense overlap ablation.
	{name: "spmm-cola-staged", wl: "rmat-dense", p: 16, d: 8, dense: planner.DenseConfig{Algo: planner.AlgoColA, C: 2, B: 2}},
	{name: "spmm-innerabc-staged", wl: "rmat-dense", p: 16, d: 8, dense: planner.DenseConfig{Algo: planner.AlgoInnerABC, C: 2, B: 2}},
	{name: "spmm-cola-overlapped", wl: "rmat-dense", p: 16, d: 8, dense: planner.DenseConfig{Algo: planner.AlgoColA, C: 2, B: 2, Pipeline: true}},
}

// GateResult is one shape's outcome.
type GateResult struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	P        int    `json:"p"`
	L        int    `json:"l"`
	B        int    `json:"b"`
	Pipeline bool   `json:"pipeline"`
	Format   string `json:"format"`
	// SparseComm is the column-subset A-broadcast mode ("off" unless the
	// shape opts in).
	SparseComm string `json:"sparse_comm"`
	// Algo, C, and D describe the sparse×dense shapes: the algorithm family,
	// the 1.5D replication factor, and the panel width (empty/zero for the
	// sparse×sparse shapes).
	Algo string `json:"algo,omitempty"`
	C    int    `json:"c,omitempty"`
	D    int    `json:"d,omitempty"`
	// Gated marks shapes whose ModelSeconds are compared against the
	// baseline; overlapped shapes are informational (their exposed share
	// depends on measured compute).
	Gated bool `json:"gated"`
	// CommSeconds is the exposed modeled communication (sum over steps of the
	// max-over-ranks α–β time). Deterministic for staged shapes.
	CommSeconds float64 `json:"comm_seconds"`
	// WorkUnits is the total abstract local work across ranks and steps.
	WorkUnits int64 `json:"work_units"`
	// Bytes is the total payload volume across ranks and steps.
	Bytes int64 `json:"bytes"`
	// HiddenCommSeconds is the overlap ablation's hidden share
	// (informational; zero for staged shapes).
	HiddenCommSeconds float64 `json:"hidden_comm_seconds"`
	// ModelSeconds is the gate metric: CommSeconds + WorkUnits·SecPerWorkUnit.
	ModelSeconds float64 `json:"model_seconds"`
}

// GateReport is the JSON document `spgemm-bench -gate -json` emits and the
// checked-in baseline stores.
type GateReport struct {
	SecPerWorkUnit float64      `json:"sec_per_work_unit"`
	Shapes         []GateResult `json:"shapes"`
}

// Shape returns the named result, or nil.
func (g *GateReport) Shape(name string) *GateResult {
	for i := range g.Shapes {
		if g.Shapes[i].Name == name {
			return &g.Shapes[i]
		}
	}
	return nil
}

// run executes the shape on its pinned workload (tiny scale) and machine
// (the comm-amplified Cori-KNL model unless it pins local), recording spans
// into trace when that is set. A sparse×dense shape's output must equal the
// serial reference exactly: the workload is integer-valued precisely so the
// gate doubles as the bit-identity contract for the dense schedules.
func (sh gateShape) run(trace *obs.Recorder) (outcome, error) {
	machine := costmodel.CoriKNL().ScaledBeta(commAmplification(ScaleTiny))
	if sh.machine == "local" {
		machine = costmodel.LocalHost()
	}
	pn := pins{p: sh.p, l: sh.l, machine: machine, trace: trace, opts: core.Options{
		ForceBatches: sh.b, RunSymbolic: sh.symbolic, Pipeline: sh.pipeline,
		Format: sh.format, SparseComm: sh.sparse,
	}}
	if sh.d == 0 {
		wl, err := Workload(sh.wl, ScaleTiny)
		if err != nil {
			return outcome{}, err
		}
		a, b := PairFor(wl)
		return execute(a, b, nil, pn)
	}
	pn.dense = &sh.dense
	a := SpMMGraph(ScaleTiny)
	panel := PanelFor(a, int32(sh.d))
	out, err := execute(a, nil, panel, pn)
	if err == nil && !spmat.DenseEqual(out.dense, localmm.SpMMSerial(a, panel)) {
		err = fmt.Errorf("output differs from the serial SpMM reference")
	}
	return out, err
}

// RunGate executes the pinned shapes and assembles the report. Everything is
// pinned here — tiny workload scale, Cori-KNL α–β with the tiny-scale comm
// amplification, forced batch counts — so two runs of the same code produce
// identical gated numbers.
func RunGate() (*GateReport, error) {
	rep := &GateReport{SecPerWorkUnit: GateSecPerWorkUnit}
	for _, sh := range gateShapes {
		out, err := sh.run(nil)
		if err != nil {
			return nil, fmt.Errorf("gate shape %s: %w", sh.name, err)
		}
		res := GateResult{
			Name:              sh.name,
			Workload:          sh.wl,
			P:                 sh.p,
			L:                 sh.l,
			B:                 sh.b,
			Pipeline:          sh.pipeline,
			Format:            sh.format.String(),
			SparseComm:        sh.sparse.String(),
			CommSeconds:       out.comm,
			WorkUnits:         out.work,
			Bytes:             out.bytes,
			HiddenCommSeconds: hiddenSeconds(out.summary),
			ModelSeconds:      out.model(),
		}
		if sh.d > 0 {
			res.B, res.Pipeline = sh.dense.B, sh.dense.Pipeline
			res.Algo, res.C, res.D = sh.dense.Algo.String(), sh.dense.C, sh.d
		}
		res.Gated = !res.Pipeline
		rep.Shapes = append(rep.Shapes, res)
	}
	return rep, nil
}

// CompareGate checks cur against base and returns one message per violation
// (empty slice = gate passes). A gated shape regresses when its ModelSeconds
// exceed the baseline's by more than tol (relative); disappeared shapes and
// mismatched work-unit rates are violations too, so the gate cannot pass
// vacuously.
func CompareGate(cur, base *GateReport, tol float64) []string {
	var bad []string
	if cur.SecPerWorkUnit != base.SecPerWorkUnit {
		return []string{fmt.Sprintf("sec_per_work_unit differs (current %g, baseline %g): regenerate the baseline",
			cur.SecPerWorkUnit, base.SecPerWorkUnit)}
	}
	for _, b := range base.Shapes {
		if !b.Gated {
			continue
		}
		c := cur.Shape(b.Name)
		if c == nil {
			bad = append(bad, fmt.Sprintf("%s: missing from current run", b.Name))
			continue
		}
		if limit := b.ModelSeconds * (1 + tol); c.ModelSeconds > limit {
			bad = append(bad, fmt.Sprintf("%s: modeled critical path %.6g s exceeds baseline %.6g s by more than %.0f%%",
				b.Name, c.ModelSeconds, b.ModelSeconds, tol*100))
		}
	}
	// Cross-shape invariant: doubly-compressed storage must never do more
	// modeled work than dense-pointer storage on the hypersparse shape —
	// the per-shape comparisons alone would let an inversion slip through a
	// baseline refresh.
	if csc, dcsc := cur.Shape("hyper-kmers-csc-staged"), cur.Shape("hyper-kmers-dcsc-staged"); csc != nil && dcsc != nil {
		if dcsc.WorkUnits > csc.WorkUnits {
			bad = append(bad, fmt.Sprintf("hyper-kmers: DCSC work units %d exceed CSC's %d — the O(cols) column-scan savings inverted",
				dcsc.WorkUnits, csc.WorkUnits))
		}
	}
	// Cross-shape invariant: the column-subset path must never move more
	// bytes than its full-broadcast twin on the hypersparse shape (it is
	// gated by the same α–β model that prices the volume).
	if full, sp := cur.Shape("hyper-kmers-dcsc-staged"), cur.Shape("hyper-kmers-sparse-staged"); full != nil && sp != nil {
		if sp.Bytes > full.Bytes {
			bad = append(bad, fmt.Sprintf("hyper-kmers: sparse-comm bytes %d exceed full-broadcast bytes %d — the subset decision inverted",
				sp.Bytes, full.Bytes))
		}
	}
	// Cross-shape invariant: on the work-dominated fiber-merge twins the
	// doubly-compressed path must beat the dense-pointer path by more than
	// 5% of modeled critical path — the DCSC Merge-Fiber's O(cols)→O(nnz)
	// column-scan saving, held as a gated number.
	if csc, dcsc := cur.Shape("fibermerge-kmers-csc"), cur.Shape("fibermerge-kmers-dcsc"); csc != nil && dcsc != nil {
		if dcsc.ModelSeconds > 0.95*csc.ModelSeconds {
			bad = append(bad, fmt.Sprintf("fibermerge-kmers: DCSC modeled critical path %.6g s is not >5%% under CSC's %.6g s — the doubly-compressed fiber-merge win regressed",
				dcsc.ModelSeconds, csc.ModelSeconds))
		}
	}
	return bad
}
