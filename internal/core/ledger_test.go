package core

import (
	"fmt"
	"testing"

	"repro/internal/genmat"
	"repro/internal/spmat"
)

// TestEveryReaderGivesBackWhatItDrew holds spmat's ledger of drawn bytes
// (spmat.Drawn) where each reader of a run found it: what a warm call draws
// from the free list — the one-shot deal, B's batch pieces, the kernels'
// chunks and every lent output's metadata, AUX arrays and view metadata —
// comes back by the time the reader is done. The readers are Multiply (which
// releases the ranks' kept outputs after assembling them), MultiplyDiscard,
// MultiplyRanks with every Result released, a run whose hooks keep every
// batch (owned outputs, nothing to release) and runs that fail at rank 0's
// second or first batch, whose deal, lent outputs, stage products and pieces
// the launcher gives back. A run failed at the first batch aborts the other
// ranks wherever they are — on a pipelined run, often in a later batch's
// stage loop with a stage product made and a broadcast post still to come —
// so it is repeated (failedRuns). Both schedules, on a protein operand
// batched three ways over 16 ranks in 4 layers (q = 2) and over 18 ranks in 2
// layers (q = 3). Each reader is warmed up first, so the kernels' workers
// hold the chunks they keep between calls before the count starts; the
// call's high-water mark must rise above the start, or the ledger would show
// nothing. The ledger is process-wide: no test of this package runs beside
// another.
func TestEveryReaderGivesBackWhatItDrew(t *testing.T) {
	const failedRuns = 10
	a := genmat.SymmetricPermute(genmat.ProteinSimilarity(9, 12, 1), 1)
	keep := func(int) BatchHook {
		return func(int, []int32, *spmat.CSC) *spmat.CSC { return nil }
	}
	failAt := func(at int) HookFactory {
		return func(rank int) BatchHook {
			if rank != 0 {
				return nil
			}
			return func(batch int, _ []int32, m *spmat.CSC) *spmat.CSC {
				if batch < at {
					return nil
				}
				return spmat.New(m.Rows, m.Cols+1)
			}
		}
	}
	for _, c := range []struct {
		p, l     int
		pipeline bool
	}{{16, 4, false}, {16, 4, true}, {18, 2, false}, {18, 2, true}} {
		rc := RunConfig{P: c.p, L: c.l, Cost: testCM, Opts: Options{ForceBatches: 3, Threads: 1, Pipeline: c.pipeline}}
		readers := []struct {
			name string
			call func() error
		}{
			{"Multiply", func() error {
				_, _, _, err := Multiply(a, a, rc, nil)
				return err
			}},
			{"MultiplyDiscard", func() error {
				_, _, err := MultiplyDiscard(a, a, rc, nil)
				return err
			}},
			{"MultiplyRanks + Release", func() error {
				ranks, _, err := MultiplyRanks(a, a, rc, nil)
				for _, r := range ranks {
					r.Release()
				}
				return err
			}},
			{"hook-kept run", func() error {
				_, _, err := MultiplyRanks(a, a, rc, keep)
				return err
			}},
			{"run failed at the second batch", func() error {
				if _, _, err := MultiplyRanks(a, a, rc, failAt(1)); err == nil {
					return fmt.Errorf("rank 0's hook error did not fail the run")
				}
				return nil
			}},
			{"runs failed at the first batch", func() error {
				for range failedRuns {
					if _, _, err := MultiplyRanks(a, a, rc, failAt(0)); err == nil {
						return fmt.Errorf("rank 0's hook error did not fail the run")
					}
				}
				return nil
			}},
		}
		for _, r := range readers {
			label := fmt.Sprintf("p=%d l=%d pipeline=%v %s", c.p, c.l, c.pipeline, r.name)
			for range 3 {
				if err := r.call(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			before, _ := spmat.Drawn(true)
			if err := r.call(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			after, peak := spmat.Drawn(false)
			t.Logf("%s: %d bytes drawn before, %d after, %d at most", label, before, after, peak)
			if after != before {
				t.Errorf("%s: %d bytes were drawn before the call and %d after: the call kept %d", label, before, after, after-before)
			}
			if peak <= before {
				t.Errorf("%s: the call's high-water mark %d is not above the %d it started at: the ledger sees no draw", label, peak, before)
			}
		}
	}
}
