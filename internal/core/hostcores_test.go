package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/genmat"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// TestHostCoresChangeOnlyWallClock: the number of host cores the compute gate
// deals out (GOMAXPROCS) and the worker ceiling of a rank's kernels (Threads)
// decide how long a run takes and nothing else. For a budgeted operand (the
// symbolic step picks b > 1, some stages heavy enough to start extra
// workers) and a hypersparse one, under both schedules and every format,
// each rank's output, flop and nonzero counts and modeled peak, and every
// step's work units, bytes and messages must be the same at GOMAXPROCS 1 and
// 4 with Threads 1 and 3 — and the staged schedule's modeled communication
// seconds too. (The pipelined schedule's exposed and hidden seconds depend on
// measured compute by design and are not compared.)
func TestHostCoresChangeOnlyWallClock(t *testing.T) {
	dense := randomMat(t, 384, 384, 24000, 301)
	hyper := genmat.Hypersparse(48, 1024, 2, 302)
	workloads := []struct {
		name string
		a, b *spmat.CSC
		p, l int
		mem  int64
	}{
		{"budgeted", dense, dense, 4, 1, 24 * 10 * dense.NNZ()}, // b = 2, ≈ 79 k flops per stage
		{"hypersparse", hyper, spmat.Transpose(hyper), 16, 4, 0},
	}
	type rankFacts struct {
		c                             spmat.Fingerprint
		flops, unmerged, peak, merged int64
		batches                       int
	}
	type stepFacts struct {
		work, bytes, messages int64
		commSeconds           float64
	}
	type facts struct {
		ranks []rankFacts
		steps map[string]stepFacts
	}
	run := func(a, b *spmat.CSC, rc RunConfig, cores int) facts {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cores))
		results, summary, err := MultiplyRanks(a, b, rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		f := facts{steps: map[string]stepFacts{}}
		for _, r := range results {
			f.ranks = append(f.ranks, rankFacts{spmat.FingerprintOf(r.CSC()), r.LocalFlops, r.UnmergedNNZ, r.PeakMemBytes, r.MergedLayerNNZ, r.Batches})
		}
		for _, cat := range summary.Categories() {
			s := summary.Step(cat)
			f.steps[cat] = stepFacts{s.WorkUnits, s.Bytes, s.Messages, s.CommSeconds}
		}
		return f
	}
	for _, wl := range workloads {
		for _, pipeline := range []bool{false, true} {
			for _, format := range allFormats {
				rc := RunConfig{P: wl.p, L: wl.l, Cost: testCM, Opts: Options{MemBytes: wl.mem, Pipeline: pipeline, Format: format}}
				var want facts
				for _, cores := range []int{1, 4} {
					for _, threads := range []int{1, 3} {
						label := fmt.Sprintf("%s/pipeline=%v/%v/gomaxprocs=%d/threads=%d", wl.name, pipeline, format, cores, threads)
						rc.Opts.Threads = threads
						got := run(wl.a, wl.b, rc, cores)
						if wl.mem > 0 && got.ranks[0].batches < 2 {
							t.Fatalf("%s: %d batch(es); the budget was meant to force several", label, got.ranks[0].batches)
						}
						if want.ranks == nil {
							want = got
							continue
						}
						for r := range want.ranks {
							if got.ranks[r] != want.ranks[r] {
								t.Errorf("%s: rank %d holds %+v, the first run %+v", label, r, got.ranks[r], want.ranks[r])
							}
						}
						for cat, w := range want.steps {
							g := got.steps[cat]
							if pipeline {
								// Exposed seconds move with measured compute, and a
								// hidden category exists only once something hid.
								g.commSeconds, w.commSeconds = 0, 0
							}
							if g != w {
								t.Errorf("%s: step %s metered %+v, the first run %+v", label, cat, g, w)
							}
						}
						if !pipeline && len(got.steps) != len(want.steps) {
							t.Errorf("%s: %d metered steps, the first run %d", label, len(got.steps), len(want.steps))
						}
					}
				}
			}
		}
	}
}

// TestLoneRankRunsItsWorkers: the one case in which a section is sure of its
// extra cores — a single rank on an idle four-core gate — so the kernels
// really run three workers inside a rank (the product is far above
// localmm's worker floor) and the race detector sees ranks' sections and
// their workers together; at four ranks the grant varies with the schedule.
func TestLoneRankRunsItsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a := randomMat(t, 384, 384, 24000, 303)
	var want *spmat.CSC
	for _, p := range []int{1, 4} {
		for _, threads := range []int{1, 3} {
			got, _, _, err := Multiply(a, a, RunConfig{P: p, L: 1, Cost: testCM, Opts: Options{Threads: threads, RunSymbolic: true, ForceBatches: 2}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !spmat.Equal(got, want) {
				t.Errorf("p=%d threads=%d: product differs from the one-rank one-thread run", p, threads)
			}
		}
	}
	// What the lone rank was granted, observed at the gate itself.
	mpi.Run(1, testCM, func(c *mpi.Comm) {
		c.MeasureCompute(func() {
			if cores := c.Workers(3); cores != 3 {
				t.Errorf("lone rank asking for 3 of 4 cores granted %d", cores)
			}
		})
	})
}
