package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/localmm"
)

func TestMemoryForBatchesIsFeasible(t *testing.T) {
	a, err := Workload(WLEukarya, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, wantB := range []int{2, 4, 8} {
		mem := memoryForBatches(a, a, 16, 1, wantB, 24)
		if mem <= 0 {
			t.Fatalf("wantB=%d: nonpositive budget", wantB)
		}
		// The budget must at least hold the inputs with the margin used by
		// the symbolic step.
		if mem < 24*2*a.NNZ() {
			t.Errorf("wantB=%d: budget %d cannot hold inputs", wantB, mem)
		}
		// And the symbolic step must accept it (no infeasibility error).
		rr := runMul(a, a, 16, 1, costmodel.CoriKNL(), mem, 0, core.Options{}, false)
		if rr.Err != nil {
			t.Errorf("wantB=%d: budget rejected: %v", wantB, rr.Err)
		}
		if rr.B < 1 {
			t.Errorf("wantB=%d: got b=%d", wantB, rr.B)
		}
	}
}

func TestMCLMemoryBudgetFeasible(t *testing.T) {
	a, _ := Workload(WLIsolatesSmall, ScaleTiny)
	mem := mclMemoryBudget(a, 16, 3)
	if mem <= 0 {
		t.Fatal("nonpositive MCL budget")
	}
	rr := runMul(a, a, 16, 1, costmodel.CoriKNL(), mem, 0, core.Options{}, false)
	if rr.Err != nil {
		t.Fatalf("MCL budget rejected: %v", rr.Err)
	}
}

func TestFmtSPrecision(t *testing.T) {
	cases := map[float64]string{
		123.4:   "123",
		12.345:  "12.35",
		0.01234: "0.0123",
	}
	for in, want := range cases {
		if got := fmtS(in); got != want {
			t.Errorf("fmtS(%v)=%q, want %q", in, got, want)
		}
	}
	if got := fmtS(1e-6); !strings.Contains(got, "e-") {
		t.Errorf("tiny values should use scientific notation, got %q", got)
	}
}

func TestCoresLabel(t *testing.T) {
	if coresLabel(256) != "4096" {
		t.Errorf("coresLabel(256)=%s", coresLabel(256))
	}
}

func TestRunMulErrorPropagates(t *testing.T) {
	a, _ := Workload(WLEukarya, ScaleTiny)
	rr := runMul(a, a, 6, 1, costmodel.CoriKNL(), 0, 1, core.Options{}, false) // 6 not a square
	if rr.Err == nil {
		t.Error("invalid grid accepted")
	}
}

func TestStepSecondsCoversAllSteps(t *testing.T) {
	a, _ := Workload(WLEukarya, ScaleTiny)
	rr := runMul(a, a, 4, 1, costmodel.CoriKNL(), 0, 2, core.Options{RunSymbolic: true}, false)
	if rr.Err != nil {
		t.Fatal(rr.Err)
	}
	ss := stepSeconds(rr.Summary)
	for _, step := range core.Steps {
		if _, ok := ss[step]; !ok {
			t.Errorf("missing step %s", step)
		}
	}
	if totalSeconds(rr.Summary) <= 0 {
		t.Error("no total time")
	}
	if commSeconds(rr.Summary)+computeSeconds(rr.Summary) <= 0 {
		t.Error("no split time")
	}
}

func TestCommAmplificationMonotone(t *testing.T) {
	// Bigger workloads need less amplification.
	if !(commAmplification(ScaleTiny) > commAmplification(ScaleSmall)) ||
		!(commAmplification(ScaleSmall) > commAmplification(ScaleLarge)) {
		t.Error("amplification should shrink as workloads grow")
	}
}

func TestScaleUp(t *testing.T) {
	if scaleUp(ScaleTiny) != ScaleSmall || scaleUp(ScaleSmall) != ScaleLarge || scaleUp(ScaleLarge) != ScaleLarge {
		t.Error("scaleUp mapping wrong")
	}
}

func TestWorkloadFlopsRegime(t *testing.T) {
	// The protein workloads must be in the paper's regime where
	// squaring expands: flops ≫ nnz(A).
	for _, wl := range []string{WLEukarya, WLIsolatesSmall, WLIsolates, WLMetaclust50} {
		a, err := Workload(wl, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		if fl := localmm.Flops(a, a); fl < 4*a.NNZ() {
			t.Errorf("%s: flops %d not ≫ nnz %d", wl, fl, a.NNZ())
		}
	}
}
