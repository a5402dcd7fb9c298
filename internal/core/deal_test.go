package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/genmat"
	"repro/internal/spmat"
)

// The one-shot entry points lend their deal: its arrays come from spmat's
// free list of arrays and go back when the call's run has ended (under
// this package's TestMain, poisoned as they go back). These tests hold that
// nothing a caller keeps refers to a lent deal, that concurrent calls never
// share one, and that a run that fails still gives its deal back.

// lendDeal deals a as A and as B on rc's grid with the arrays drawn from
// spmat's free list — the deal a one-shot call makes — and gives them back
// at once (spmat.Release, not Dealt.release), with nothing run in
// between. It returns the arrays' identities (arrayIDs).
func lendDeal(t *testing.T, a *spmat.CSC, rc RunConfig) map[unsafe.Pointer]bool {
	t.Helper()
	da, db, err := deal(a, a, rc)
	if err != nil {
		t.Fatal(err)
	}
	ids := arrayIDs(da.blocks, db.blocks)
	for _, m := range append(da.blocks, db.blocks...) {
		spmat.Release(m)
	}
	return ids
}

// arrayIDs is the set of the arrays the blocks of grids hold — column
// pointers, stored columns, rows and values — by the address of their
// memory, which stays theirs whoever holds them next.
func arrayIDs(grids ...[]spmat.Matrix) map[unsafe.Pointer]bool {
	ids := map[unsafe.Pointer]bool{}
	for _, blocks := range grids {
		for _, m := range blocks {
			switch b := m.(type) {
			case *spmat.CSC:
				addArray(ids, b.ColPtr)
				addArray(ids, b.RowIdx)
				addArray(ids, b.Val)
			case *spmat.DCSC:
				addArray(ids, b.JC)
				addArray(ids, b.CP)
				addArray(ids, b.IR)
				addArray(ids, b.Num)
			}
		}
	}
	return ids
}

func addArray[T any](ids map[unsafe.Pointer]bool, a []T) {
	if cap(a) > 0 {
		ids[unsafe.Pointer(unsafe.SliceData(a))] = true
	}
}

// cameBack deals a on rc as a one-shot call does and reports whether at
// least half of the arrays in seed — the arrays of the same deal given back
// before a call that drew them — are drawn again: whether that call gave its
// deal back. Loans draw from the same free list, so the idle bytes alone
// cannot tell a deal that stayed out from loan traffic; the arrays' identity
// can.
func cameBack(t *testing.T, a *spmat.CSC, rc RunConfig, seed map[unsafe.Pointer]bool) (shared int, ok bool) {
	t.Helper()
	for id := range lendDeal(t, a, rc) {
		if seed[id] {
			shared++
		}
	}
	return shared, 2*shared >= len(seed)
}

// TestRanksPiecesOutliveTheNextDeal keeps every rank's pieces of a
// MultiplyRanks run — the results are not released — and runs a one-shot
// multiply of another operand, which deals into the arrays the first call
// gave back. That the first call did give them back is seen by identity: the
// free list is seeded with a deal of the same operand, which the call draws,
// and a deal made after it, with no multiply in between, draws those arrays
// again. The first run's pieces must read bit-identical afterwards: no
// Result refers to a dealt block.
func TestRanksPiecesOutliveTheNextDeal(t *testing.T) {
	a := genmat.SymmetricPermute(genmat.ProteinSimilarity(8, 12, 1), 1)
	other := genmat.SymmetricPermute(genmat.ProteinSimilarity(8, 12, 2), 2)
	for _, cfg := range []struct {
		p, l, b  int
		format   spmat.Format
		pipeline bool
	}{
		{4, 1, 2, spmat.FormatCSC, false},
		{16, 4, 2, spmat.FormatDCSC, true},
		{16, 16, 1, spmat.FormatAuto, true},
	} {
		label := fmt.Sprintf("p=%d l=%d b=%d %v pipeline=%v", cfg.p, cfg.l, cfg.b, cfg.format, cfg.pipeline)
		rc := RunConfig{P: cfg.p, L: cfg.l, Cost: testCM, Opts: Options{ForceBatches: cfg.b, Format: cfg.format, Pipeline: cfg.pipeline}}
		seed := lendDeal(t, a, rc)
		results, _, err := MultiplyRanks(a, a, rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		fps := make([]spmat.Fingerprint, len(results))
		for r, res := range results {
			fps[r] = spmat.FingerprintOf(res.CSC())
		}
		if shared, ok := cameBack(t, a, rc, seed); !ok {
			t.Fatalf("%s: a deal after the call drew %d of the %d arrays the call drew: its deal was not given back", label, shared, len(seed))
		}
		if _, _, err := MultiplyDiscard(other, other, rc, nil); err != nil {
			t.Fatal(err)
		}
		for r, res := range results {
			if spmat.FingerprintOf(res.CSC()) != fps[r] {
				t.Errorf("%s: rank %d's pieces changed when the next call dealt", label, r)
			}
			res.Release()
		}
	}
}

// TestRunsNeverReleaseTheirOperands runs MultiplyDealt twice on one lent
// deal — the arrays a one-shot call draws, released only by whoever dealt
// them — with b = 1, where the stages broadcast the B block itself, and
// b = 3, where the rank copies each batch's piece and gives it back, on both
// schedules. A run must give back what it made and never a dealt block: after
// each run every block reads as the block dealt to keep, and the second run
// returns the first one's product.
func TestRunsNeverReleaseTheirOperands(t *testing.T) {
	a := randomMat(t, 64, 64, 700, 29)
	for _, p := range []struct{ p, l int }{{4, 1}, {16, 4}} {
		for _, b := range []int{1, 3} {
			for _, pipeline := range []bool{false, true} {
				label := fmt.Sprintf("p=%d l=%d b=%d pipeline=%v", p.p, p.l, b, pipeline)
				rc := RunConfig{P: p.p, L: p.l, Cost: testCM, Opts: Options{ForceBatches: b, Format: spmat.FormatAuto, Pipeline: pipeline}}
				da, db, err := deal(a, a, rc)
				if err != nil {
					t.Fatal(err)
				}
				keptA, err := Deal(a, RoleA, rc)
				if err != nil {
					t.Fatal(err)
				}
				keptB, err := Deal(a, RoleB, rc)
				if err != nil {
					t.Fatal(err)
				}
				var first *spmat.CSC
				for run := range 2 {
					results, _, err := MultiplyDealt(da, db, rc, nil, false)
					if err != nil {
						t.Fatal(err)
					}
					c, err := AssembleResults(results, a.Rows, a.Cols)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range results {
						r.Release()
					}
					if first == nil {
						first = c
					} else if !storedEqual(c, first) {
						t.Errorf("%s: the second run on the deal returned another product", label)
					}
					for x := range da.blocks {
						if !spmat.Equal(da.blocks[x].ToCSC(), keptA.blocks[x].ToCSC()) || !spmat.Equal(db.blocks[x].ToCSC(), keptB.blocks[x].ToCSC()) {
							t.Fatalf("%s: run %d released block %d of its operands", label, run, x)
						}
					}
				}
				da.release()
				db.release()
			}
		}
	}
}

// TestConcurrentOneShotCallsKeepTheirDeals runs four goroutines of one-shot
// multiplies side by side, each on an operand of its own — two assembling
// through Multiply, two through a budgeted MultiplyDiscard whose hook
// fingerprints every batch — and holds every call to the same call run
// alone beforehand, exactly: concurrent deals draw from one free list and
// must never share an array. Under `make race` this is also the free list's
// race workout.
func TestConcurrentOneShotCallsKeepTheirDeals(t *testing.T) {
	type job struct {
		a       *spmat.CSC
		rc      RunConfig
		discard bool
	}
	run := func(j job) ([]spmat.Fingerprint, error) {
		if !j.discard {
			c, _, _, err := Multiply(j.a, j.a, j.rc, nil)
			if err != nil {
				return nil, err
			}
			return []spmat.Fingerprint{spmat.FingerprintOf(c)}, nil
		}
		fps := make([][]spmat.Fingerprint, j.rc.P)
		hooks := func(rank int) BatchHook {
			return func(_ int, _ []int32, c *spmat.CSC) *spmat.CSC {
				fps[rank] = append(fps[rank], spmat.FingerprintOf(c))
				return nil
			}
		}
		if _, _, err := MultiplyDiscard(j.a, j.a, j.rc, hooks); err != nil {
			return nil, err
		}
		var all []spmat.Fingerprint
		for _, f := range fps {
			all = append(all, f...)
		}
		return all, nil
	}
	var jobs []job
	for g := range 4 {
		a := randomMat(t, 96+int32(8*g), 96+int32(8*g), 900+100*g, int64(70+g))
		rc := RunConfig{P: 16, L: 4, Cost: testCM, Opts: Options{ForceBatches: 1, Format: spmat.FormatDCSC}}
		if g%2 == 1 {
			rc = RunConfig{P: 4, L: 1, Cost: testCM, Opts: Options{MemBytes: 24 * 3 * a.NNZ(), Pipeline: true}}
		}
		jobs = append(jobs, job{a, rc, g%2 == 1})
	}
	want := make([][]spmat.Fingerprint, len(jobs))
	for g, j := range jobs {
		var err error
		if want[g], err = run(j); err != nil {
			t.Fatal(err)
		}
	}
	const calls = 4
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for g, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				got, err := run(j)
				if err == nil && fmt.Sprint(got) != fmt.Sprint(want[g]) {
					err = fmt.Errorf("call %d differs from the same call run alone", i)
				}
				if err != nil {
					errs[g] = fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestFailedRunGivesItsDealBack fails a MultiplyRanks run the way
// TestOneRankHookErrorAbortsTheRun does — rank 0's hook hands back a piece
// one column too wide, and the world aborts — and holds that the deal still
// went back, by identity as TestRanksPiecesOutliveTheNextDeal sees it: a
// deal made after the failed call draws the arrays the call drew. The next
// call, dealt from the same arrays (poisoned as they came back), must return
// the product a clean call returned before the failure, exactly. Then the
// same run fails at rank 0's last batch, once ranks 1–3 have finished: they
// run with no hook, so their batch outputs are lent and kept in their
// Results, which the failed run returns to nobody and so must release — every
// non-empty piece they kept reads poisoned once the run is over.
func TestFailedRunGivesItsDealBack(t *testing.T) {
	a := randomMat(t, 48, 48, 500, 23)
	for _, pipeline := range []bool{false, true} {
		rc := RunConfig{P: 4, L: 1, Cost: testCM, Opts: Options{ForceBatches: 2, Format: spmat.FormatCSC, Pipeline: pipeline}}
		want, _, _, err := Multiply(a, a, rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		hooks := func(rank int) BatchHook {
			if rank != 0 {
				return nil
			}
			return func(_ int, _ []int32, m *spmat.CSC) *spmat.CSC {
				return spmat.New(m.Rows, m.Cols+1)
			}
		}
		seed := lendDeal(t, a, rc)
		if _, _, err := MultiplyRanks(a, a, rc, hooks); err == nil || !strings.HasPrefix(err.Error(), "core: rank 0: core: batch hook changed column count") {
			t.Fatalf("pipeline=%v: got error %v, want rank 0's hook error", pipeline, err)
		}
		if shared, ok := cameBack(t, a, rc, seed); !ok {
			t.Errorf("pipeline=%v: a deal after the failed call drew %d of the %d arrays the call drew: the deal was not given back", pipeline, shared, len(seed))
		}
		got, _, _, err := Multiply(a, a, rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !storedEqual(got, want) {
			t.Errorf("pipeline=%v: the call after a failed one returned another product", pipeline)
		}

		da, db, err := deal(a, a, rc)
		if err != nil {
			t.Fatal(err)
		}
		kept := make([][]spmat.Matrix, rc.P)
		var finished sync.WaitGroup
		finished.Add(rc.P - 1)
		_, _, err = worlds.launch(da, db, rc, func(rank int, p *Proc) error {
			if rank != 0 {
				defer finished.Done()
				res, err := p.BatchedSUMMA3D(nil)
				if err == nil {
					kept[rank] = slices.Clone(res.Pieces)
				}
				return err
			}
			// Ranks 1–3 need nothing of rank 0 after its last batch's
			// Merge-Fiber.
			_, err := p.BatchedSUMMA3D(func(batch int, _ []int32, m *spmat.CSC) *spmat.CSC {
				if batch == 0 {
					return nil
				}
				finished.Wait()
				return spmat.New(m.Rows, m.Cols+1)
			})
			return err
		})
		da.release()
		db.release()
		if err == nil {
			t.Fatalf("pipeline=%v: rank 0's hook did not fail the run", pipeline)
		}
		for r, pieces := range kept[1:] {
			if len(pieces) != 2 {
				t.Fatalf("pipeline=%v: rank %d kept %d pieces, not its two batches", pipeline, r+1, len(pieces))
			}
			for x, piece := range pieces {
				if piece.NNZ() > 0 && !poisoned(piece.ToCSC()) {
					t.Errorf("pipeline=%v: rank %d's batch %d does not read poisoned: the failed run kept it", pipeline, r+1, x)
				}
			}
		}
	}
}
