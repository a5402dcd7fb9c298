package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/genmat"
	"repro/internal/spmat"
)

// The one-shot entry points lend their deal: its arrays come from spmat's
// free list of dealt arrays and go back when the call's run has ended (under
// this package's TestMain, poisoned as they go back). These tests hold that
// nothing a caller keeps refers to a lent deal, that concurrent calls never
// share one, and that a run that fails still gives its deal back.

// TestRanksPiecesOutliveTheNextDeal keeps every rank's pieces of a
// MultiplyRanks run — the results are not released — and runs a one-shot
// multiply of another operand, which deals into the arrays the first call
// gave back (its hook sees fewer idle bytes than before it dealt). The first
// run's pieces must read bit-identical afterwards: no Result refers to a
// dealt block.
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
		results, _, err := MultiplyRanks(a, a, rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		fps := make([]spmat.Fingerprint, len(results))
		for r, res := range results {
			fps[r] = spmat.FingerprintOf(res.CSC())
		}
		before := spmat.IdleDealBytes()
		var during atomic.Int64
		during.Store(before)
		hooks := func(rank int) BatchHook {
			if rank != 0 {
				return nil
			}
			return func(_ int, _ []int32, _ *spmat.CSC) *spmat.CSC {
				during.Store(min(during.Load(), spmat.IdleDealBytes()))
				return nil
			}
		}
		if _, _, err := MultiplyDiscard(other, other, rc, hooks); err != nil {
			t.Fatal(err)
		}
		if during.Load() >= before {
			t.Fatalf("%s: the second call's deal drew nothing from the %d idle bytes the first gave back", label, before)
		}
		for r, res := range results {
			if spmat.FingerprintOf(res.CSC()) != fps[r] {
				t.Errorf("%s: rank %d's pieces changed when the next call dealt", label, r)
			}
			res.Release()
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
// went back: the free list holds more after the call than rank 0's hook saw
// while the run held the deal. The blocks are CSC, which builds no AUX array
// during the run, so nothing else draws from the list after the hook has
// read it. The next call, dealt from the same arrays (poisoned as they came
// back), must return the product a clean call returned before the failure,
// exactly.
func TestFailedRunGivesItsDealBack(t *testing.T) {
	a := randomMat(t, 48, 48, 500, 23)
	for _, pipeline := range []bool{false, true} {
		rc := RunConfig{P: 4, L: 1, Cost: testCM, Opts: Options{ForceBatches: 2, Format: spmat.FormatCSC, Pipeline: pipeline}}
		want, _, _, err := Multiply(a, a, rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		var during atomic.Int64
		hooks := func(rank int) BatchHook {
			if rank != 0 {
				return nil
			}
			return func(_ int, _ []int32, m *spmat.CSC) *spmat.CSC {
				during.Store(spmat.IdleDealBytes())
				return spmat.New(m.Rows, m.Cols+1)
			}
		}
		if _, _, err := MultiplyRanks(a, a, rc, hooks); err == nil || !strings.HasPrefix(err.Error(), "core: rank 0: core: batch hook changed column count") {
			t.Fatalf("pipeline=%v: got error %v, want rank 0's hook error", pipeline, err)
		}
		if after := spmat.IdleDealBytes(); after <= during.Load() {
			t.Errorf("pipeline=%v: %d idle deal bytes after the failed call, %d while it ran: the deal was not given back", pipeline, after, during.Load())
		}
		got, _, _, err := Multiply(a, a, rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !storedEqual(got, want) {
			t.Errorf("pipeline=%v: the call after a failed one returned another product", pipeline)
		}
	}
}
