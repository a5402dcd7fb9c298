//go:build !race

package service

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/apps/mcl"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/planner"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// The race detector's allocator, and its sync.Pool that drops what it is
// given at random, are not the ones whose bytes this file counts.

// coldPlanBytesPerCandidate is what a cold plan may allocate per candidate it
// ranks beyond its operands' CSC bytes: the candidate, its step breakdown and
// its share of the grids' statistics.
const coldPlanBytesPerCandidate = 2 << 10

// A plan runs before admission, so its scratch must be bounded by what /load
// already admitted: a cold plan under the daemon's Input allocates at most
// its two operands' CSC form — 8·(cols+1) + 12·nnz bytes each, the measure
// checkResident holds them to — plus coldPlanBytesPerCandidate per candidate.
// Held on the eight expansion operands of one mcl-service clustering (16
// ranks, the budget of its bench config), kmer-hyper's pair and the wide
// empty pair (64 ranks, no budget). Each pair is planned once before the
// measured plan: a daemon's scratch pools (the planner's, and the deal's
// count pass it shares with the run) hold what its last plan and run grew,
// and what is measured is what a plan-cache miss allocates.
func TestColdPlanFitsItsOperands(t *testing.T) {
	type pair struct {
		name string
		a, b *spmat.CSC
		cfg  Config
	}
	var pairs []pair
	protein := genmat.SymmetricPermute(genmat.ProteinSimilarity(10, 8, 1), 1)
	mclCfg := Config{P: 16, Machine: costmodel.CoriKNL(), MemBytes: 24 * localmm.Flops(protein, protein) / 4}
	if _, err := mcl.ClusterVia(protein, mcl.Config{MaxIter: 8, ChaosTol: -1}, func(m, _ *spmat.CSC, _ string) (*spmat.CSC, error) {
		pairs = append(pairs, pair{fmt.Sprintf("expansion-%d", len(pairs)+1), m, m, mclCfg})
		return localmm.Multiply(m, m, semiring.PlusTimes()), nil
	}); err != nil {
		t.Fatal(err)
	}
	wide := Config{P: 64, Machine: costmodel.CoriKNL()}
	kmer := genmat.Kmer(genmat.KmerConfig{Reads: 4096, Kmers: 262144, KmersPerRead: 24, Overlap: 0.08, Seed: 1})
	pairs = append(pairs,
		pair{"kmer-hyper", kmer, spmat.Transpose(kmer), wide},
		pair{"wide-empty", spmat.New(16, 1<<20), spmat.New(1<<20, 16), wide})

	cscBytes := func(m *spmat.CSC) int64 { return 8*(int64(m.Cols)+1) + 12*m.NNZ() }
	for _, pr := range pairs {
		s, err := New(pr.cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := core.PlanInput(s.runConfig(), s.cfg.Machine)
		// A collection now, not inside the measured plan, would empty the
		// pools the plan before it filled.
		runtime.GC()
		if _, err := planner.New(pr.a, pr.b, in); err != nil {
			t.Fatal(err)
		}
		var pl *planner.Plan
		grew := allocatedBy(func() { pl, err = planner.New(pr.a, pr.b, in) })
		if err != nil {
			t.Fatal(err)
		}
		bound := cscBytes(pr.a) + cscBytes(pr.b) + coldPlanBytesPerCandidate*int64(len(pl.Candidates))
		if int64(grew) > bound {
			t.Errorf("%s: a cold plan allocated %d bytes, over its operands' %d + %d candidates' %d", pr.name, grew, cscBytes(pr.a)+cscBytes(pr.b), len(pl.Candidates), coldPlanBytesPerCandidate*len(pl.Candidates))
		}
	}
}
