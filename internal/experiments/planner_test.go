package experiments

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/mpi"
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
	recordRun = func(pn pins, batches int, s *mpi.Summary) {
		runs = append(runs, formatRun(pn, batches, s))
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
