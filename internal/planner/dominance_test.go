package planner_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/planner"
	"repro/internal/spmat"
)

// TestDominatedAxes holds two dominance claims of the planner's own model over
// the daemon's planning space (core.PlanInput: sparse A-broadcast off and
// auto, one and two overlap channels) with the symbolic pass run, on both
// fixtures, two rank counts and four budgets:
//
//   - sparse auto prices the column subset against the tree broadcast per
//     stage, so its twin with the sparse mode off is never cheaper and never
//     needs less memory, and the two agree on feasibility;
//   - a second overlap channel only adds hiding capacity, so a pipelined
//     candidate's k = 2 twin is never more expensive or larger than its k = 1
//     twin.
//
// Without the symbolic pass the first claim fails (sparse auto pays a support
// Allgather), and nothing is claimed about the format axis. doc.go records
// both counterexamples and why the two claims do not yet license pruning the
// dominated values.
func TestDominatedAxes(t *testing.T) {
	type axisKey struct {
		l        int
		format   spmat.Format
		pipeline bool
		channels int
		sparse   mpi.SparseMode
	}
	var candidates, ties int
	for name, m := range map[string]*spmat.CSC{"friendster": friendsterTiny(), "kmers": kmersTiny()} {
		a, b := pairFor(m)
		unit := 96 * (a.NNZ() + b.NNZ())
		for _, p := range []int{16, 64} {
			for _, mem := range []int64{0, 2 * unit, 4 * unit, 8 * unit} {
				pl, err := planner.New(a, b, core.PlanInput(core.RunConfig{P: p, Opts: core.Options{MemBytes: mem, RunSymbolic: true}}, testMachine()))
				if err != nil {
					t.Fatal(err)
				}
				byKey := make(map[axisKey]planner.Candidate, len(pl.Candidates))
				for _, c := range pl.Candidates {
					byKey[axisKey{c.L, c.Format, c.Pipeline, c.Channels, c.SparseComm}] = c
				}
				candidates += len(pl.Candidates)
				for k, c := range byKey {
					fail := func(what string) { t.Errorf("%s p=%d mem=%d %s: %s", name, p, mem, c.Config, what) }
					if k.sparse == mpi.SparseOff {
						twin := k
						twin.sparse = mpi.SparseAuto
						auto, ok := byKey[twin]
						switch {
						case !ok:
							fail("no sparse=auto twin")
						case auto.Feasible != c.Feasible:
							fail("sparse=auto twin disagrees on feasibility")
						case auto.ModelSeconds > c.ModelSeconds:
							fail("sparse=auto twin models slower")
						case auto.PeakMemBytesPerRank > c.PeakMemBytesPerRank:
							fail("sparse=auto twin peaks higher")
						case auto.ModelSeconds == c.ModelSeconds:
							ties++
						}
					}
					if k.pipeline && k.channels == 0 {
						twin := k
						twin.channels = 2
						two, ok := byKey[twin]
						switch {
						case !ok:
							fail("no k=2 twin")
						case two.ModelSeconds > c.ModelSeconds:
							fail("k=2 twin models slower")
						case two.PeakMemBytesPerRank > c.PeakMemBytesPerRank:
							fail("k=2 twin peaks higher")
						}
					}
				}
			}
		}
	}
	t.Logf("%d candidates; %d sparse off/auto pairs tie exactly", candidates, ties)
}
