package experiments

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/localmm"
	"repro/internal/planner"
	"repro/internal/spmat"
)

// PlanGate is RunPlanGate without its per-shape lines.
func PlanGate(sc Scale, tol float64) ([]string, error) {
	return RunPlanGate(sc, tol, io.Discard)
}

// TestPlannerWithinOracle is the planner-vs-oracle property test: on every
// planner-gate shape (the fig-6/fig-8 and hyper-kmers gate workloads, plus
// the sparse×dense tall-skinny shape whose sweep spans the algorithm axis —
// SUMMA vs the 1.5D schedules over every replication factor), the planner's
// top pick must be feasible and within PlanGateTolerance of the exhaustive
// sweep's best modeled critical path.
func TestPlannerWithinOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is slow in -short mode")
	}
	bad, err := PlanGate(ScaleTiny, PlanGateTolerance)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range bad {
		t.Error(msg)
	}
}

// TestDenseCandidatesExecute holds the planner and the runtime to one
// description of a sparse×dense run: every configuration planner.NewDense
// emits for the spmm tiny shape at p = 16 — the SUMMA arm, and both 1.5D
// families at every replication factor, staged and pipelined — runs through
// core.MultiplyDense as emitted and reproduces the serial SpMM bit for bit.
func TestDenseCandidatesExecute(t *testing.T) {
	const p = 16
	a := SpMMGraph(ScaleTiny)
	d := spmmPanelWidth(ScaleTiny)
	panel := PanelFor(a, d)
	want := localmm.SpMMSerial(a, panel)
	machine := costmodel.CoriKNL().ScaledBeta(commAmplification(ScaleTiny))
	pl, err := planner.NewDense(a, d, planner.DenseInput{P: p, Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	key := func(algo planner.Algo, c int, pipe bool) string {
		return fmt.Sprintf("%v c=%d pipeline=%v", algo, c, pipe)
	}
	ran := map[string]bool{}
	for _, cand := range pl.Candidates {
		cfg := cand.DenseConfig
		got, _, _, err := core.MultiplyDense(a, panel, core.RunConfig{P: p, Cost: machine.Cost()}, cfg)
		if err != nil {
			t.Errorf("%s: %v", cfg, err)
			continue
		}
		if !spmat.DenseEqual(got, want) {
			t.Errorf("%s: differs from the serial SpMM", cfg)
		}
		ran[key(cfg.Algo, cfg.C, cfg.Pipeline)] = true
	}
	for _, pipe := range []bool{false, true} {
		wantRan := []string{key(planner.AlgoSUMMA, 0, pipe)}
		for _, c := range planner.ReplicationsFor(p) {
			wantRan = append(wantRan, key(planner.AlgoColA, c, pipe), key(planner.AlgoInnerABC, c, pipe))
		}
		for _, k := range wantRan {
			if !ran[k] {
				t.Errorf("the plan has no %s candidate", k)
			}
		}
	}
}

// TestPlanGateCatchesBadPick sanity-checks the gate's teeth: with a
// negative tolerance even the oracle's own best "regresses", so an empty
// violation list cannot be vacuous.
func TestPlanGateCatchesBadPick(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is slow in -short mode")
	}
	bad, err := PlanGate(ScaleTiny, -0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) == 0 {
		t.Error("a -50% tolerance reported no violations — the gate cannot fail")
	}
}

// TestAutotuneAppliesChoice holds spgemm-bench -autotune to the path the
// runtime autotune and the daemon take (core.ApplyChoice): a budgeted shape
// runs under its budget with the symbolic step choosing b, and an unbudgeted
// one pins the pick's b = 1.
func TestAutotuneAppliesChoice(t *testing.T) {
	var runs []string
	recordRun = func(o outcome) {
		runs = append(runs, formatRun(o))
	}
	defer func() { recordRun = nil }()
	if err := RunAutotune(RunOpts{Scale: ScaleTiny}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(planShapes) {
		t.Fatalf("autotune made %d runs for %d shapes", len(runs), len(planShapes))
	}
	for i, sh := range planShapes {
		_, _, _, mem := planShapeInputs(sh, ScaleTiny)
		want := fmt.Sprintf(" mem=%d forceb=0 ", mem)
		if mem == 0 {
			want = " mem=0 forceb=1 "
		}
		if !strings.Contains(runs[i], want) {
			t.Errorf("%s: ran %s, want%s", sh.name, runs[i], want)
		}
	}
}
