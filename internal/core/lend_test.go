package core

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/localmm"
	"repro/internal/spmat"
)

// TestMain runs every test of this package — the 72-combination differential
// and the transpose identity over the merge paths among them — with returned
// chunks poisoned (localmm.PoisonReturnedChunks): the moment a rank hands a
// stage product's chunk back, every row in it is −1 and every value NaN. A
// product that is still read after its loan ended, or that escaped into a
// rank's output, then fails whatever comparison it reaches — NaN equals
// nothing, itself included — instead of passing because nobody had refilled
// the chunk yet.
func TestMain(m *testing.M) {
	localmm.PoisonReturnedChunks.Store(true)
	os.Exit(m.Run())
}

// storedEqual reports whether two pieces hold the same entries in the same
// stored order with bit-identical values: their wire bytes hash alike.
func storedEqual(a, b *spmat.CSC) bool {
	return spmat.FingerprintOf(a) == spmat.FingerprintOf(b)
}

// lendRun is what one distributed run leaves behind: every rank's output
// piece and, when a hook kept them, the batch pieces the hook was shown — the
// matrices themselves, not copies, read only after the run has ended and
// every loan has been returned and poisoned.
type lendRun struct {
	ranks []*Result
	kept  [][]*spmat.CSC
}

func runKeeping(t *testing.T, a, b *spmat.CSC, rc RunConfig, keep bool) lendRun {
	t.Helper()
	out := lendRun{kept: make([][]*spmat.CSC, rc.P)}
	var hooks HookFactory
	if keep {
		hooks = func(rank int) BatchHook {
			return func(_ int, _ []int32, c *spmat.CSC) *spmat.CSC {
				out.kept[rank] = append(out.kept[rank], c)
				return nil
			}
		}
	}
	var err error
	if out.ranks, _, err = MultiplyRanks(a, b, rc, hooks); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameRun holds a lending run to the reference, piece by piece.
func sameRun(t *testing.T, label string, got, want lendRun, keep bool) {
	t.Helper()
	for r := range want.ranks {
		if !storedEqual(got.ranks[r].C, want.ranks[r].C) {
			t.Errorf("%s: rank %d's output differs from the non-lending run's", label, r)
		}
		if !keep {
			continue
		}
		if len(got.kept[r]) != len(want.kept[r]) {
			t.Fatalf("%s: rank %d's hook saw %d batches, the reference %d", label, r, len(got.kept[r]), len(want.kept[r]))
		}
		for b := range want.kept[r] {
			if !storedEqual(got.kept[r][b], want.kept[r][b]) {
				t.Errorf("%s: rank %d's hook kept a batch %d that differs from the non-lending run's", label, r, b)
			}
		}
	}
}

// TestLentProductsNeverEscape is the proof that lending a stage product is
// safe wherever forEachStage does it. The reference is the same run with
// every stage product an owned copy (lendStageProducts off: Plan.Mul). Under
// the poison, every schedule × grid with q ∈ {1, 2, 4} × format × Threads ∈
// {1, 4} must reproduce it bit for bit and in stored order, both in the
// pieces a hook kept — the very matrices each rank's Merge-Fiber returned,
// which at q = 1, l = 1 are the stage products themselves — and in every
// rank's Result.C. q = 1 is where a product escapes through a one-operand
// merge; the heavy operand's stages pay for a second worker, so wherever the
// gate grants one (-cpu 4 under make race) a multi-range product comes back
// owned while its neighbours are lent.
func TestLentProductsNeverEscape(t *testing.T) {
	defer func() { lendStageProducts = true }()
	light := randomRealMat(t, 96, 96, 2500, 601)
	heavy := randomRealMat(t, 384, 384, 24000, 602)
	type grid struct{ p, l int }
	cases := []struct {
		name    string
		a       *spmat.CSC
		grids   []grid
		formats []spmat.Format
	}{
		{"light", light, []grid{{16, 16}, {16, 4}, {16, 1}, {4, 1}, {1, 1}}, allFormats},
		{"heavy", heavy, []grid{{4, 1}}, []spmat.Format{spmat.FormatCSC}},
	}
	schedules := []struct {
		name     string
		pipeline bool
	}{
		{"staged", false}, {"pipeline", true},
	}
	for _, c := range cases {
		for _, g := range c.grids {
			for _, sched := range schedules {
				for _, f := range c.formats {
					rc := RunConfig{P: g.p, L: g.l, Cost: testCM, Opts: Options{
						ForceBatches: 2, Pipeline: sched.pipeline, Format: f, Threads: 1,
					}}
					lendStageProducts = false
					want := runKeeping(t, c.a, c.a, rc, true)
					lendStageProducts = true
					for _, threads := range []int{1, 4} {
						for _, keep := range []bool{true, false} {
							rc.Opts.Threads = threads
							label := fmt.Sprintf("%s/p%d-l%d/%s/%v/threads=%d/keep=%v", c.name, g.p, g.l, sched.name, f, threads, keep)
							sameRun(t, label, runKeeping(t, c.a, c.a, rc, keep), want, keep)
						}
					}
				}
			}
		}
	}
}
