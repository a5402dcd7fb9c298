package experiments

import (
	"io"
	"testing"
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
