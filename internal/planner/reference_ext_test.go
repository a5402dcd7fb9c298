package planner_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps/mcl"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/genmat"
	"repro/internal/grid"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/planner"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// mclOperands returns the eight expansion operands of one Markov clustering
// of the mcl-service shape — protein similarity at scale 10, edge factor 8,
// eight iterations, each expansion a local A·A — and the Input the daemon
// plans every one of them under: 16 ranks, Cori-KNL, a budget of
// 24·flops(A, A)/4 over the first operand's generator matrix.
func mclOperands(tb testing.TB) ([]*spmat.CSC, planner.Input) {
	tb.Helper()
	a := genmat.SymmetricPermute(genmat.ProteinSimilarity(10, 8, 1), 1)
	var ops []*spmat.CSC
	if _, err := mcl.ClusterVia(a, mcl.Config{MaxIter: 8, ChaosTol: -1}, func(m, _ *spmat.CSC, _ string) (*spmat.CSC, error) {
		ops = append(ops, m)
		return localmm.Multiply(m, m, semiring.PlusTimes()), nil
	}); err != nil {
		tb.Fatal(err)
	}
	if len(ops) != 8 {
		tb.Fatalf("%d expansions, want 8", len(ops))
	}
	m := costmodel.CoriKNL()
	rc := core.RunConfig{P: 16, L: 1, Cost: m.Cost(), Opts: core.Options{MemBytes: 24 * localmm.Flops(a, a) / 4, Threads: 1}}
	return ops, core.PlanInput(rc, m)
}

// TestPlannerMatchesReference: New must rank exactly the candidates the
// reference statistics give — every field of every candidate, in order, and
// the probe and every grid's memoized statistics themselves — on both
// planner fixtures, the k-mer one on 1024 ranks too (whose grids include a
// q = 2 one of 256 layers over an 8192-wide inner dimension), the eight
// operands of one clustering (under the daemon's own Input too), a 64-rank
// k-mer A·Aᵀ and an R-MAT pair, with and without a budget, over the
// planner's whole space, and the forced sparse mode of every sparse-auto
// candidate through Evaluate.
func TestPlannerMatchesReference(t *testing.T) {
	type pair struct {
		name string
		a, b *spmat.CSC
		p    int
	}
	fa, fb := pairFor(friendsterTiny())
	ka, kb := pairFor(kmersTiny())
	big := genmat.Kmer(genmat.KmerConfig{Reads: 512, Kmers: 32768, KmersPerRead: 24, Overlap: 0.08, Seed: 7})
	rmat := genmat.RMAT(genmat.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 5, Weighted: true})
	pairs := []pair{
		{"friendster", fa, fb, 64}, {"kmers", ka, kb, 64}, {"kmers-1024", ka, kb, 1024},
		{"kmers-512", big, spmat.Transpose(big), 64}, {"rmat", rmat, rmat, 16},
	}
	ops, daemon := mclOperands(t)
	for i, m := range ops {
		pairs = append(pairs, pair{fmt.Sprintf("mcl-%d", i+1), m, m, 16})
	}

	check := func(t *testing.T, a, b *spmat.CSC, in planner.Input) {
		t.Helper()
		got, err := planner.New(a, b, in)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := planner.NewReference(a, b, in)
		if err != nil {
			t.Fatal(err)
		}
		// SparseOn is not a candidate; each ranked sparse-auto point's
		// forced twin is predicted through Evaluate, on both plans, before
		// the statistics it computes are compared.
		for _, c := range got.Candidates {
			if c.SparseComm != mpi.SparseAuto {
				continue
			}
			cfg := c.Config
			cfg.SparseComm = mpi.SparseOn
			on, err := got.Evaluate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			refOn, err := ref.Evaluate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(on, refOn) {
				t.Fatalf("sparse-on %+v differs\n got %+v\nwant %+v", cfg, on, refOn)
			}
		}
		if d := got.InternalsDiff(ref); d != "" {
			t.Fatalf("statistics differ from the reference: %s", d)
		}
		if !reflect.DeepEqual(got.Candidates, ref.Candidates) {
			for i := range got.Candidates {
				if i < len(ref.Candidates) && !reflect.DeepEqual(got.Candidates[i], ref.Candidates[i]) {
					t.Fatalf("candidate %d differs\n got %+v\nwant %+v", i, got.Candidates[i], ref.Candidates[i])
				}
			}
			t.Fatalf("%d candidates, reference %d", len(got.Candidates), len(ref.Candidates))
		}
	}

	// sliceModelColumns holds the slice model to the reference one sampled
	// column at a time, at every grid's stage and layer weights: summed over
	// a whole sample, a last-bit difference in one column's clamp rescale is
	// usually rounded away, so only this finds an expression that computes
	// the rescale in another order.
	sliceModelColumns := func(t *testing.T, a, b *spmat.CSC, p int) {
		t.Helper()
		probe, err := planner.ProbePair(a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		cols := probe.SampledColumns()
		for _, l := range planner.LayersFor(p) {
			q, err := grid.SideFor(p, l)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range [][]float64{probe.SliceWeights(q, l), probe.LayerWeights(q, l)} {
				for k, col := range cols {
					total, per := col.UnmergedW(w)
					refTotal, refPer := col.UnmergedWReference(w)
					if total != refTotal || !reflect.DeepEqual(per, refPer) {
						t.Fatalf("l = %d, sampled column %d, %d slices: slice model %v %v, reference %v %v", l, k, len(w), total, per, refTotal, refPer)
					}
				}
			}
		}
	}

	for _, pr := range pairs {
		t.Run(pr.name, func(t *testing.T) {
			sliceModelColumns(t, pr.a, pr.b, pr.p)
			for _, mem := range []int64{0, 24 * localmm.Flops(pr.a, pr.b) / 4} {
				check(t, pr.a, pr.b, planner.Input{P: pr.p, Machine: testMachine(), MemBytes: mem, Symbolic: mem > 0})
			}
			if pr.p == daemon.P {
				check(t, pr.a, pr.b, daemon)
			}
		})
	}
}

// BenchmarkPlannerNew times one cold plan of each expansion of one
// clustering, under the Input the daemon plans it with — what every
// mcl-service expansion pays before admission — and one of kmer-hyper's
// hypersparse pair, the 4096 × 262144 k-mer A·Aᵀ on 64 ranks with no budget.
func BenchmarkPlannerNew(b *testing.B) {
	ops, in := mclOperands(b)
	run := func(name string, a, bm *spmat.CSC, in planner.Input) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := planner.New(a, bm, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for i, m := range ops {
		run(fmt.Sprintf("expansion-%d", i+1), m, m, in)
	}
	kmer := genmat.Kmer(genmat.KmerConfig{Reads: 4096, Kmers: 262144, KmersPerRead: 24, Overlap: 0.08, Seed: 1})
	run("kmer-hyper", kmer, spmat.Transpose(kmer), planner.Input{P: 64})
}
