package core

import (
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/localmm"
	"repro/internal/spmat"
)

// TestMain runs every test of this package — the 72-combination differential
// and the transpose identity over the merge paths among them — with returned
// chunks poisoned (localmm.PoisonReturnedChunks): the moment a rank hands a
// lent output's chunk back, every row in it is −1 and every value NaN. An
// output that is still read after its loan ended, or that escaped into a
// rank's output, then fails whatever comparison it reaches — NaN equals
// nothing, itself included — instead of passing because nobody had refilled
// the chunk yet. The same flag poisons every stage's plan when the stage
// releases it (localmm.Plan.Release): a slot or flop count read after its
// stage is out of range or −1.
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
		if !storedEqual(got.ranks[r].CSC(), want.ranks[r].CSC()) {
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

// runDiscarding runs MultiplyDiscard with a hook that fingerprints every
// borrowed batch inside the call and, with keep, also keeps the piece itself
// past the call, which the contract forbids.
func runDiscarding(t *testing.T, a *spmat.CSC, rc RunConfig, keep bool) (fps [][]spmat.Fingerprint, kept [][]*spmat.CSC) {
	t.Helper()
	fps, kept = make([][]spmat.Fingerprint, rc.P), make([][]*spmat.CSC, rc.P)
	hooks := func(rank int) BatchHook {
		return func(_ int, _ []int32, c *spmat.CSC) *spmat.CSC {
			fps[rank] = append(fps[rank], spmat.FingerprintOf(c))
			if keep {
				kept[rank] = append(kept[rank], c)
			}
			return nil
		}
	}
	if _, _, err := MultiplyDiscard(a, a, rc, hooks); err != nil {
		t.Fatal(err)
	}
	return fps, kept
}

// poisoned reports whether every entry of c reads as a returned chunk.
func poisoned(c *spmat.CSC) bool {
	return !slices.ContainsFunc(c.RowIdx, func(r int32) bool { return r != -1 }) &&
		!slices.ContainsFunc(c.Val, func(v float64) bool { return !math.IsNaN(v) })
}

// TestLentProductsNeverEscape is the proof that every loan the engine makes
// is safe: stage products (forEachStage), Merge-Layer outputs on grids with
// l > 1 — returned after the next batch's exchange post, or by the launcher
// after the last batch, so b ∈ {1, 3} reaches both — and a discarded batch's
// output, which is Merge-Fiber's on l > 1, Merge-Layer's on l = 1 and, with
// q = 1 too, the stage product. The reference is the same run with nothing lent
// (lendChunks off). Under the poison, every schedule × grid with q ∈ {1, 2, 4}
// and l ∈ {1, 4, 16} × format × Threads ∈ {1, 4} must reproduce it bit for
// bit and in stored order: in the pieces a MultiplyRanks hook kept — the very
// matrices each rank's Merge-Fiber returned, which at q = 1, l = 1 are the
// stage products themselves — in every rank's Result.CSC(), and in the
// fingerprint a MultiplyDiscard hook takes of its borrowed piece inside the
// call. q = 1 is where a product escapes through a one-operand merge; the
// heavy operand's stages pay for a second worker, so wherever the gate grants
// one (-cpu 4 under make race) a multi-range output comes back owned while
// its neighbours are lent. Last, a MultiplyDiscard hook that keeps its
// borrowed piece past the call — on every CSC grid with one thread, where
// every batch is lent and the hook is handed the kernel output itself —
// must find no non-empty piece as it read it in the call once the run is
// over: the piece was the kernel's, not the hook's, so it reads poisoned or,
// where a later kernel call took the returned chunk, that call's entries.
// Poisoned pieces must turn up.
func TestLentProductsNeverEscape(t *testing.T) {
	defer func() { lendChunks = true }()
	light := randomRealMat(t, 96, 96, 2500, 601)
	heavy := randomRealMat(t, 384, 384, 24000, 602)
	type grid struct {
		p, l    int
		batches []int
	}
	cases := []struct {
		name    string
		a       *spmat.CSC
		grids   []grid
		formats []spmat.Format
	}{
		{"light", light, []grid{{16, 16, []int{1, 3}}, {64, 16, []int{1, 3}}, {16, 4, []int{1, 3}}, {16, 1, []int{2}}, {4, 1, []int{2}}, {1, 1, []int{2}}}, allFormats},
		{"heavy", heavy, []grid{{4, 1, []int{2}}, {16, 4, []int{1}}}, []spmat.Format{spmat.FormatCSC}},
	}
	schedules := []struct {
		name     string
		pipeline bool
	}{
		{"staged", false}, {"pipeline", true},
	}
	// poisonedOn counts the kept pieces that read poisoned by the shapes of
	// their grid, each of which lends its discarded batches differently.
	poisonedOn := map[string]int{}
	defer func() {
		for _, shape := range []string{"l>1", "l=1", "q=1"} {
			if poisonedOn[shape] == 0 {
				t.Errorf("no kept piece of a %s grid read poisoned: its discarded batches were not lent", shape)
			}
		}
	}()
	for _, c := range cases {
		for _, g := range c.grids {
			for _, b := range g.batches {
				for _, sched := range schedules {
					for _, f := range c.formats {
						rc := RunConfig{P: g.p, L: g.l, Cost: testCM, Opts: Options{
							ForceBatches: b, Pipeline: sched.pipeline, Format: f, Threads: 1,
						}}
						lendChunks = false
						want := runKeeping(t, c.a, c.a, rc, true)
						lendChunks = true
						name := fmt.Sprintf("%s/p%d-l%d-b%d/%s/%v", c.name, g.p, g.l, b, sched.name, f)
						for _, threads := range []int{1, 4} {
							rc.Opts.Threads = threads
							for _, keep := range []bool{true, false} {
								label := fmt.Sprintf("%s/threads=%d/keep=%v", name, threads, keep)
								sameRun(t, label, runKeeping(t, c.a, c.a, rc, keep), want, keep)
							}
							fps, _ := runDiscarding(t, c.a, rc, false)
							for r := range want.kept {
								for x, kept := range want.kept[r] {
									if x >= len(fps[r]) || fps[r][x] != spmat.FingerprintOf(kept) {
										t.Errorf("%s/threads=%d/discard: rank %d's hook read a batch %d that differs from the non-lending run's", name, threads, r, x)
									}
								}
							}
						}
						if f != spmat.FormatCSC {
							continue
						}
						rc.Opts.Threads = 1
						shapes := []string{"l>1"}
						if g.l == 1 {
							shapes[0] = "l=1"
						}
						if g.p == g.l {
							shapes = append(shapes, "q=1")
						}
						fps, kept := runDiscarding(t, c.a, rc, true)
						for r := range kept {
							for x, piece := range kept[r] {
								if piece.NNZ() == 0 {
									continue
								}
								if poisoned(piece) {
									for _, shape := range shapes {
										poisonedOn[shape]++
									}
								} else if spmat.FingerprintOf(piece) == fps[r][x] {
									t.Errorf("%s/discard-keep: rank %d's batch %d outlived its call: it is not the lent chunk", name, r, x)
								}
							}
						}
					}
				}
			}
		}
	}
}
