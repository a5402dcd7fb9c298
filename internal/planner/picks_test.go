package planner_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/localmm"
	"repro/internal/planner"
	"repro/internal/spmat"
)

var update = flag.Bool("update", false, "rewrite testdata/picks.golden from this run instead of comparing against it")

// TestPicksGolden pins what the planner decides: for every plan below, the
// best candidate's Choice and the candidate count, or the best DenseConfig
// and the first feasible staged DenseConfig of a sparse×dense plan. The
// plans are TestDominatedAxes' grid (both fixtures, two rank counts, four budgets, the
// symbolic pass on and off, all through core.PlanInput), the three
// planner-gate shapes, and the sparse×dense planner over both fixtures and
// the spmm gate operand. testdata/picks.golden holds the lines; -update
// rewrites it.
func TestPicksGolden(t *testing.T) {
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	sparse := func(name string, a, b *spmat.CSC, in planner.Input) {
		pl, err := planner.New(a, b, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pick := "none"
		if best := pl.Best(); best != nil {
			js, err := json.Marshal(best.Choice())
			if err != nil {
				t.Fatal(err)
			}
			pick = string(js)
		}
		add("%s: %d candidates, best %s", name, len(pl.Candidates), pick)
	}

	for _, fx := range []struct {
		name string
		m    *spmat.CSC
	}{{"friendster", friendsterTiny()}, {"kmers", kmersTiny()}} {
		a, b := pairFor(fx.m)
		unit := 96 * (a.NNZ() + b.NNZ())
		for _, p := range []int{16, 64} {
			for _, mem := range []int64{0, 2 * unit, 4 * unit, 8 * unit} {
				for _, sym := range []bool{false, true} {
					rc := core.RunConfig{P: p, Opts: core.Options{MemBytes: mem, RunSymbolic: sym}}
					sparse(fmt.Sprintf("%s p=%d mem=%d symbolic=%t", fx.name, p, mem, sym), a, b, core.PlanInput(rc, testMachine()))
				}
			}
		}
	}

	// The planner-gate shapes, built as the planner experiment builds them:
	// the workload at tiny scale, 64 ranks, and the budget that reproduces
	// the shape's batch regime at l = 16 with 24-byte nonzeros.
	for _, sh := range []struct {
		name, wl string
		wantB    int
	}{
		{"fig6-friendster", experiments.WLFriendster, 4},
		{"fig8-symbolic", experiments.WLIsolatesSmall, 1},
		{"hyper-kmers", experiments.WLRiceKmers, 2},
	} {
		const p = 64
		m, err := experiments.Workload(sh.wl, experiments.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		a, b := experiments.PairFor(m)
		var mem int64
		if sh.wantB > 1 {
			mem = budgetForBatches(a, b, p, sh.wantB)
		}
		rc := core.RunConfig{P: p, Opts: core.Options{MemBytes: mem, RunSymbolic: true}}
		sparse(sh.name, a, b, core.PlanInput(rc, testMachine()))
	}

	for _, fx := range []struct {
		name string
		m    *spmat.CSC
	}{{"friendster", friendsterTiny()}, {"kmers", kmersTiny()}, {"spmm-graph", experiments.SpMMGraph(experiments.ScaleTiny)}} {
		for _, p := range []int{4, 16, 64} {
			for _, d := range []int32{4, 8, 32} {
				name := fmt.Sprintf("dense %s p=%d d=%d", fx.name, p, d)
				pl, err := planner.NewDense(fx.m, d, planner.DenseInput{P: p, Machine: testMachine()})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var staged *planner.DenseCandidate
				for i := range pl.Candidates {
					if c := &pl.Candidates[i]; c.Feasible && !c.Pipeline {
						staged = c
						break
					}
				}
				add("%s: best %s, staged %s", name, densePick(pl.Best()), densePick(staged))
			}
		}
	}

	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "picks.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, gotLines[i], w)
		}
	}
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d lines, golden %d", len(gotLines), len(wantLines))
	}
}

// densePick renders a sparse×dense pick with its full-precision score.
func densePick(c *planner.DenseCandidate) string {
	if c == nil {
		return "none"
	}
	return c.DenseConfig.String() + " model=" + strconv.FormatFloat(c.ModelSeconds, 'g', -1, 64)
}

// budgetForBatches is the planner experiment's budget for a batch regime: the
// per-rank inputs with a 4× imbalance margin plus twice the mean per-rank
// flops split over wantB batches, at 24 bytes per nonzero, over p ranks.
func budgetForBatches(a, b *spmat.CSC, p, wantB int) int64 {
	const r = 24
	maxA, maxB := 4*a.NNZ()/int64(p), 4*b.NNZ()/int64(p)
	estC := 2 * localmm.Flops(a, b) / int64(p)
	perProc := float64(r*estC)/float64(wantB) + float64(r*(maxA+maxB))
	return int64(perProc * float64(p))
}
