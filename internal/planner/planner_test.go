package planner_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/genmat"
	"repro/internal/mpi"
	"repro/internal/planner"
	"repro/internal/spmat"
)

// testMachine mirrors the experiment harness: Cori-KNL constants with the
// tiny-scale β amplification, so comm/compute proportions match the gate.
func testMachine() costmodel.Machine {
	return costmodel.CoriKNL().ScaledBeta(32)
}

// friendsterTiny is the fig-6 gate workload (Friendster analogue, tiny
// scale): an R-MAT social network, symmetrically permuted.
func friendsterTiny() *spmat.CSC {
	return genmat.SymmetricPermute(genmat.RMAT(genmat.RMATConfig{
		Scale: 8, EdgeFactor: 10, Symmetrize: true, Seed: 102,
	}), 202)
}

// kmersTiny is the hypersparse Rice-kmers analogue (reads × k-mers, ~2 nnz
// per occupied column at the block level).
func kmersTiny() *spmat.CSC {
	reads := int32(1) << 7
	return genmat.Kmer(genmat.KmerConfig{
		Reads: reads, Kmers: reads * 64, KmersPerRead: 24, Overlap: 0.08, Seed: 106,
	})
}

// pairFor mirrors the experiments convention: A·A for square inputs, A·Aᵀ
// otherwise.
func pairFor(a *spmat.CSC) (*spmat.CSC, *spmat.CSC) {
	if a.Rows == a.Cols {
		return a, a
	}
	return a, spmat.Transpose(a)
}

// measure runs one staged configuration on the simulated cluster and returns
// the per-step metering summary.
func measure(t *testing.T, a, b *spmat.CSC, p, l, batches int, format spmat.Format, machine costmodel.Machine) *mpi.Summary {
	t.Helper()
	rc := core.RunConfig{
		P: p, L: l, Cost: machine.Cost(),
		Opts: core.Options{RunSymbolic: true, ForceBatches: batches, Format: format},
	}
	_, _, summary, err := core.Multiply(a, b, rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return summary
}

// relErr returns |got-want|/want (0 when both are 0).
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestPredictorsAgainstMeters is the per-step predictor unit test: for a
// dense-ish and a hypersparse workload, across formats and two grid shapes,
// every step's predicted communication and work units must agree with the
// meters of an actual staged run within the step's documented tolerance.
// Broadcast communication and the input-side work terms are modeled exactly
// (exact per-block occupancy through the shared wire/size formulas); the
// output-side steps go through the sampled probe's slice model and carry
// looser bounds.
func TestPredictorsAgainstMeters(t *testing.T) {
	machine := testMachine()
	type shape struct {
		name    string
		mat     *spmat.CSC
		p, l, b int
		format  spmat.Format
	}
	shapes := []shape{
		{"friendster-l16-b4-csc", friendsterTiny(), 64, 16, 4, spmat.FormatCSC},
		{"friendster-l4-b2-dcsc", friendsterTiny(), 64, 4, 2, spmat.FormatDCSC},
		{"kmers-l16-b2-dcsc", kmersTiny(), 64, 16, 2, spmat.FormatDCSC},
		{"kmers-l16-b2-auto", kmersTiny(), 64, 16, 2, spmat.FormatAuto},
	}
	// Per-step tolerances: exact (broadcast bytes, input-side work) vs
	// probe-modeled (merge volumes, fiber exchange).
	commTol := map[string]float64{
		planner.StepSymbolic: 1e-9, // exact: full-block broadcasts + allreduces
		planner.StepABcast:   1e-9, // exact: per-block wire bytes
		planner.StepBBcast:   0.10, // batch pieces modeled as even splits
		planner.StepAllToAll: 0.30, // probe slice model + occupancy estimate
	}
	workTol := map[string]float64{
		planner.StepSymbolic:   1e-9, // exact: flops + traversal terms
		planner.StepLocalMult:  1e-9, // exact: flops + traversal terms
		planner.StepMergeLayer: 0.25, // probe slice model
		planner.StepMergeFiber: 0.45, // probe slice model (within-column row skew)
	}

	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			a, b := pairFor(sh.mat)
			pl, err := planner.New(a, b, planner.Input{P: sh.p, Machine: machine, Symbolic: true})
			if err != nil {
				t.Fatal(err)
			}
			pred, err := pl.Evaluate(planner.Config{L: sh.l, B: sh.b, Format: sh.format})
			if err != nil {
				t.Fatal(err)
			}
			sum := measure(t, a, b, sh.p, sh.l, sh.b, sh.format, machine)

			for _, step := range planner.Steps {
				got := pred.Step(step)
				want := sum.Step(step)
				if tol, ok := commTol[step]; ok {
					e := relErr(got.CommSeconds, want.CommSeconds)
					t.Logf("%-16s comm: predicted %.6g  measured %.6g  (err %.1f%%)",
						step, got.CommSeconds, want.CommSeconds, 100*e)
					if e > tol {
						t.Errorf("%s predicted comm %.6g s, measured %.6g s: error %.1f%% exceeds %.0f%%",
							step, got.CommSeconds, want.CommSeconds, 100*e, 100*tol)
					}
				}
				if tol, ok := workTol[step]; ok {
					e := relErr(float64(got.WorkUnits), float64(want.WorkUnits))
					t.Logf("%-16s work: predicted %d  measured %d  (err %.1f%%)",
						step, got.WorkUnits, want.WorkUnits, 100*e)
					if e > tol {
						t.Errorf("%s predicted work %d, measured %d: error %.1f%% exceeds %.0f%%",
							step, got.WorkUnits, want.WorkUnits, 100*e, 100*tol)
					}
				}
			}
		})
	}
}

// TestSparsePredictorAgainstMeters: the sparse-comm A-Broadcast prediction
// replays the runtime's per-stage subset decision from exact occupancy
// statistics, so it must match the meters byte-exactly — in auto and forced
// mode, with the symbolic pass supplying the supports and with the fallback
// Allgather doing it.
func TestSparsePredictorAgainstMeters(t *testing.T) {
	machine := testMachine()
	type shape struct {
		name     string
		mat      *spmat.CSC
		p, l, b  int
		format   spmat.Format
		mode     mpi.SparseMode
		symbolic bool
	}
	shapes := []shape{
		{"kmers-auto-symbolic", kmersTiny(), 64, 16, 2, spmat.FormatDCSC, mpi.SparseAuto, true},
		{"kmers-on-symbolic", kmersTiny(), 64, 16, 2, spmat.FormatDCSC, mpi.SparseOn, true},
		{"kmers-on-allgather", kmersTiny(), 64, 16, 2, spmat.FormatDCSC, mpi.SparseOn, false},
		{"friendster-auto-symbolic", friendsterTiny(), 64, 4, 2, spmat.FormatCSC, mpi.SparseAuto, true},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			a, b := pairFor(sh.mat)
			pl, err := planner.New(a, b, planner.Input{P: sh.p, Machine: machine, Symbolic: sh.symbolic})
			if err != nil {
				t.Fatal(err)
			}
			pred, err := pl.Evaluate(planner.Config{L: sh.l, B: sh.b, Format: sh.format, SparseComm: sh.mode})
			if err != nil {
				t.Fatal(err)
			}
			rc := core.RunConfig{
				P: sh.p, L: sh.l, Cost: machine.Cost(),
				Opts: core.Options{
					RunSymbolic: sh.symbolic, ForceBatches: sh.b,
					Format: sh.format, SparseComm: sh.mode,
				},
			}
			_, _, sum, err := core.Multiply(a, b, rc, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := pred.Step(planner.StepABcast).CommSeconds
			want := sum.Step(planner.StepABcast).CommSeconds
			if e := relErr(got, want); e > 1e-9 {
				t.Errorf("sparse A-Broadcast predicted %.9g s, measured %.9g s (err %.3g)", got, want, e)
			}
			// The subset path must never predict above the full-block path
			// in auto mode (the decision only fires when it wins).
			if sh.mode == mpi.SparseAuto {
				full, err := pl.Evaluate(planner.Config{L: sh.l, B: sh.b, Format: sh.format})
				if err != nil {
					t.Fatal(err)
				}
				if got > full.Step(planner.StepABcast).CommSeconds*(1+1e-12) {
					t.Errorf("auto sparse A-Broadcast %.9g exceeds full-block %.9g",
						got, full.Step(planner.StepABcast).CommSeconds)
				}
			}
		})
	}
}

// TestLayersFor pins the valid-grid enumeration.
func TestLayersFor(t *testing.T) {
	got := planner.LayersFor(64)
	want := []int{1, 4, 16, 64}
	if len(got) != len(want) {
		t.Fatalf("LayersFor(64) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LayersFor(64) = %v, want %v", got, want)
		}
	}
	if got := planner.LayersFor(7); len(got) != 1 || got[0] != 7 {
		t.Fatalf("LayersFor(7) = %v, want [7]", got)
	}
}

// TestUnmergedEnvelope checks the slice model's analytic endpoints: at one
// slice it reproduces the merged output estimate, it never exceeds the flop
// count, and it is monotone in the slice count.
func TestUnmergedEnvelope(t *testing.T) {
	a, b := pairFor(friendsterTiny())
	pr, err := planner.ProbePair(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	u1 := pr.Unmerged(1)
	if e := relErr(u1, float64(pr.NnzCEst)); e > 0.01 {
		t.Errorf("Unmerged(1) = %.0f, want ≈ NnzCEst %d", u1, pr.NnzCEst)
	}
	prev := u1
	for _, s := range []int{2, 4, 16, 64, 1024} {
		u := pr.Unmerged(s)
		if u+1e-9 < prev {
			t.Errorf("Unmerged not monotone: U(%d) = %.0f < previous %.0f", s, u, prev)
		}
		if u > float64(pr.Flops)*(1+1e-9) {
			t.Errorf("Unmerged(%d) = %.0f exceeds flops %d", s, u, pr.Flops)
		}
		prev = u
	}
}

// TestProbeExactWhenFullySampled: sampling every column must reproduce the
// exact symbolic counts.
func TestProbeExactWhenFullySampled(t *testing.T) {
	a, b := pairFor(friendsterTiny())
	pr, err := planner.ProbePair(a, b, int(b.Cols))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for j := int32(0); j < b.Cols; j++ {
		// Exact distinct-row count per column via a reference merge.
		rows := map[int32]bool{}
		bRows, _ := b.Column(j)
		for _, r := range bRows {
			aRows, _ := a.Column(r)
			for _, ar := range aRows {
				rows[ar] = true
			}
		}
		want += int64(len(rows))
	}
	if pr.NnzCEst != want {
		t.Fatalf("fully sampled NnzCEst = %d, want %d", pr.NnzCEst, want)
	}
}

// TestPlanDeterministic: two independent plans over the same inputs must
// agree candidate by candidate, bit for bit.
func TestPlanDeterministic(t *testing.T) {
	a, b := pairFor(kmersTiny())
	in := planner.Input{P: 64, Machine: testMachine(), Symbolic: true, MemBytes: 64 << 20}
	p1, err := planner.New(a, b, in)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := planner.New(a, b, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Candidates) != len(p2.Candidates) {
		t.Fatalf("candidate counts differ: %d vs %d", len(p1.Candidates), len(p2.Candidates))
	}
	for i := range p1.Candidates {
		c1, c2 := p1.Candidates[i], p2.Candidates[i]
		if c1.Config != c2.Config || c1.ModelSeconds != c2.ModelSeconds ||
			c1.WorkUnits != c2.WorkUnits || c1.CommSeconds != c2.CommSeconds {
			t.Fatalf("candidate %d differs between runs: %+v vs %+v", i, c1.Config, c2.Config)
		}
	}
}

// TestMemoizedPredictionsUnchanged: predict reads the two sampled-output
// passes (output imbalance, occupied fiber cells) off the grid, where the
// slice model left them for every candidate of that grid side; every
// candidate of a plan — steps, seconds, peak, position — must equal the one
// predicted from the probe's own answers for the candidate's (p, l), on both
// fixtures and a larger k-mer pair, with every axis of the space open. A memo
// filled for the wrong side, or read from the wrong grid, fails it.
func TestMemoizedPredictionsUnchanged(t *testing.T) {
	kmers := genmat.Kmer(genmat.KmerConfig{Reads: 512, Kmers: 32768, KmersPerRead: 24, Overlap: 0.08, Seed: 7})
	for name, m := range map[string]*spmat.CSC{"friendster": friendsterTiny(), "kmers": kmersTiny(), "kmers-512": kmers} {
		a, b := pairFor(m)
		for _, mem := range []int64{0, 8 << 20} {
			pl, err := planner.New(a, b, planner.Input{P: 64, Machine: testMachine(), Symbolic: true, MemBytes: mem})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range pl.Candidates {
				if ref := pl.PredictUnmemoized(c); !reflect.DeepEqual(c, ref) {
					t.Fatalf("%s, budget %d: candidate %d (%+v) differs from its unmemoized prediction\n got %+v\nwant %+v", name, mem, i, c.Config, c, ref)
				}
			}
		}
	}
}

// TestUnconstrainedPicksOneBatch: with no memory budget every candidate must
// carry b = 1 (batching exists for memory, not speed).
func TestUnconstrainedPicksOneBatch(t *testing.T) {
	a, b := pairFor(friendsterTiny())
	pl, err := planner.New(a, b, planner.Input{P: 64, Machine: testMachine(), Symbolic: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pl.Candidates {
		if c.B != 1 {
			t.Errorf("unconstrained candidate %s has b = %d", c.Config, c.B)
		}
	}
	if best := pl.Best(); best == nil {
		t.Fatal("no feasible candidate without a budget")
	}
}

// TestBudgetInducesBatches: squeezing the budget must raise the induced
// batch count of one configuration (l = 16, csc, staged), and an impossibly
// small budget must make the space infeasible.
func TestBudgetInducesBatches(t *testing.T) {
	a, b := pairFor(friendsterTiny())
	in := planner.Input{P: 64, Machine: testMachine(), Symbolic: true}
	cfg := planner.Config{L: 16, Format: spmat.FormatCSC}
	induced := func(mem int64) planner.Candidate {
		t.Helper()
		in := in
		in.MemBytes = mem
		pl, err := planner.New(a, b, in)
		if err != nil {
			t.Fatal(err)
		}
		c, err := pl.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	lb := induced(1 << 40)
	// 40% of the aggregate b=1 high-water mark: comfortably above the input
	// floor, too small for the unmerged intermediate in one batch.
	tb := induced(int64(0.4 * 64 * float64(lb.PeakMemBytesPerRank)))
	if !lb.Feasible || !tb.Feasible {
		t.Fatal("expected feasible candidates at both budgets")
	}
	if lb.B != 1 {
		t.Errorf("huge budget induced b = %d, want 1", lb.B)
	}
	if tb.B <= lb.B {
		t.Errorf("tight budget induced b = %d, not more than loose %d", tb.B, lb.B)
	}

	hopeless := in
	hopeless.MemBytes = 64 // bytes
	none, err := planner.New(a, b, hopeless)
	if err != nil {
		t.Fatal(err)
	}
	if none.Best() != nil {
		t.Error("64-byte budget produced a feasible candidate")
	}
}

// TestReportReadable sanity-checks the human-readable plan report.
func TestReportReadable(t *testing.T) {
	a, b := pairFor(kmersTiny())
	pl, err := planner.New(a, b, planner.Input{P: 64, Machine: testMachine(), Symbolic: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := pl.Report()
	for _, want := range []string{"ranked configurations", "chosen:", "why:", "probe:"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if best := pl.Best(); best != nil && !strings.Contains(rep, best.Config.String()) {
		t.Errorf("report does not name the chosen config %q", best.Config.String())
	}
}
