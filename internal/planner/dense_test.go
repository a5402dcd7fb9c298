package planner_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/planner"
	"repro/internal/spmat"
)

func randomPanel(t testing.TB, rows, cols int32, seed int64) *spmat.DenseMat {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := spmat.NewDense(rows, cols)
	for i := range d.Val {
		d.Val[i] = float64(rng.Intn(9) + 1)
	}
	return d
}

func measureDense(t *testing.T, a *spmat.CSC, b *spmat.DenseMat, cfg planner.DenseConfig, p int) *mpi.Summary {
	t.Helper()
	rc := core.RunConfig{P: p, Cost: testMachine().Cost()}
	_, _, sum, err := core.MultiplyDense(a, b, rc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestDensePredictorAgainstMeters is the 1.5D mirror of
// TestPredictorsAgainstMeters: the planner replays the runtime's collectives
// with exact per-block wire sizes and exact work accounting, so for staged
// schedules every step's predicted communication and work must match the
// meters of a real MultiplyDense run essentially exactly.
func TestDensePredictorAgainstMeters(t *testing.T) {
	machine := testMachine()
	a := friendsterTiny()
	d := int32(8)
	b := randomPanel(t, a.Cols, d, 77)

	shapes := []struct {
		name string
		p    int
		cfg  planner.DenseConfig
	}{
		{"cola-p16-c2-b2", 16, planner.DenseConfig{Algo: planner.AlgoColA, C: 2, B: 2}},
		{"cola-p8-c1-b1", 8, planner.DenseConfig{Algo: planner.AlgoColA, C: 1, B: 1}},
		{"cola-p16-c4-b1", 16, planner.DenseConfig{Algo: planner.AlgoColA, C: 4, B: 1}},
		{"inner-p16-c2-b2", 16, planner.DenseConfig{Algo: planner.AlgoInnerABC, C: 2, B: 2}},
		{"inner-p9-c3-b2", 9, planner.DenseConfig{Algo: planner.AlgoInnerABC, C: 3, B: 2}},
		{"inner-p16-c1-b3", 16, planner.DenseConfig{Algo: planner.AlgoInnerABC, C: 1, B: 3}},
	}
	const tol = 1e-9
	commSteps := []string{planner.StepABcast, planner.StepBBcast, planner.StepAllToAll}
	workSteps := []string{planner.StepLocalMult, planner.StepMergeLayer, planner.StepMergeFiber}

	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			pl, err := planner.NewDense(a, d, planner.DenseInput{P: sh.p, Machine: machine})
			if err != nil {
				t.Fatal(err)
			}
			pred, err := pl.Evaluate(sh.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum := measureDense(t, a, b, sh.cfg, sh.p)
			for _, step := range commSteps {
				got, want := pred.Step(step).CommSeconds, sum.Step(step).CommSeconds
				e := relErr(got, want)
				t.Logf("%-16s comm: predicted %.6g  measured %.6g  (err %.2g)", step, got, want, e)
				if e > tol {
					t.Errorf("%s predicted comm %.6g s, measured %.6g s", step, got, want)
				}
			}
			for _, step := range workSteps {
				got, want := pred.Step(step).WorkUnits, sum.Step(step).WorkUnits
				e := relErr(float64(got), float64(want))
				t.Logf("%-16s work: predicted %d  measured %d  (err %.2g)", step, got, want, e)
				if e > tol {
					t.Errorf("%s predicted work %d, measured %d", step, got, want)
				}
			}
		})
	}
}

// TestDensePlannerPicksColAOnTallSkinny is the anti-vacuity check on the
// algorithm axis: for a narrow dense panel (the iterated-SpMM regime the
// 1.5D algorithms target), densifying through SUMMA re-broadcasts the sparse
// matrix with 24-byte nonzeros and must lose to a 1.5D schedule. The planner
// must notice.
func TestDensePlannerPicksColAOnTallSkinny(t *testing.T) {
	a := friendsterTiny()
	pl, err := planner.NewDense(a, 4, planner.DenseInput{P: 16, Machine: testMachine()})
	if err != nil {
		t.Fatal(err)
	}
	best := pl.Best()
	if best == nil {
		t.Fatal("no feasible candidate")
	}
	t.Logf("best: %v (model %.3gs, one-time %.3gs, per-iter %.3gs)",
		best.DenseConfig, best.ModelSeconds, best.OneTimeSeconds, best.PerIterSeconds)
	if best.Algo == planner.AlgoSUMMA {
		t.Errorf("planner picked SUMMA for a tall-skinny panel: %v", best.DenseConfig)
	}
	if pl.SUMMA == nil {
		t.Error("the SUMMA arm must still have been enumerated for comparison")
	}
}

// TestDenseIterationsAmortize: ModelSeconds must equal
// one-time + iterations × per-iteration, so replication-amortizing
// candidates gain exactly the modeled amount as iterations grow.
func TestDenseIterationsAmortize(t *testing.T) {
	a := friendsterTiny()
	cfg := planner.DenseConfig{Algo: planner.AlgoInnerABC, C: 2, B: 1}
	var single planner.DenseCandidate
	for _, iters := range []int{1, 10} {
		pl, err := planner.NewDense(a, 8, planner.DenseInput{P: 16, Machine: testMachine(), Iterations: iters})
		if err != nil {
			t.Fatal(err)
		}
		cand, err := pl.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cand.OneTimeSeconds <= 0 {
			t.Fatalf("InnerABC must have a one-time replication share, got %g", cand.OneTimeSeconds)
		}
		want := cand.OneTimeSeconds + float64(iters)*cand.PerIterSeconds
		if math.Abs(cand.ModelSeconds-want) > 1e-12*want {
			t.Errorf("iters=%d: ModelSeconds %g, want %g", iters, cand.ModelSeconds, want)
		}
		if iters == 1 {
			single = cand
		} else if cand.ModelSeconds >= 10*single.ModelSeconds {
			t.Errorf("10 iterations cost %g, not amortized below 10×%g", cand.ModelSeconds, single.ModelSeconds)
		}
	}
}

// TestDensePlanDeterministic: same inputs, same ranked plan.
func TestDensePlanDeterministic(t *testing.T) {
	a := kmersTiny()
	mk := func() *planner.DensePlan {
		pl, err := planner.NewDense(a, 8, planner.DenseInput{P: 16, Machine: testMachine()})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	p1, p2 := mk(), mk()
	if len(p1.Candidates) != len(p2.Candidates) {
		t.Fatalf("candidate counts differ: %d vs %d", len(p1.Candidates), len(p2.Candidates))
	}
	for i := range p1.Candidates {
		a, b := p1.Candidates[i], p2.Candidates[i]
		if a.DenseConfig != b.DenseConfig || a.ModelSeconds != b.ModelSeconds {
			t.Errorf("candidate %d differs: %v %g vs %v %g", i, a.DenseConfig, a.ModelSeconds, b.DenseConfig, b.ModelSeconds)
		}
	}
}

// TestReplicationsFor pins the c² | p rule.
func TestReplicationsFor(t *testing.T) {
	cases := map[int][]int{
		1:  {1},
		2:  {1},
		4:  {1, 2},
		8:  {1, 2},
		9:  {1, 3},
		16: {1, 2, 4},
		64: {1, 2, 4, 8},
	}
	for p, want := range cases {
		got := planner.ReplicationsFor(p)
		if len(got) != len(want) {
			t.Errorf("p=%d: %v, want %v", p, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("p=%d: %v, want %v", p, got, want)
				break
			}
		}
	}
}
