package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/localmm"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

func TestMultiplyConvenience(t *testing.T) {
	a := randomMat(t, 40, 40, 300, 60)
	want := localmm.Multiply(a, a, semiring.PlusTimes())
	got, results, sum, err := Multiply(a, a, RunConfig{P: 8, L: 2, Cost: testCM, Opts: Options{ForceBatches: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !spmat.Equal(got, want) {
		t.Error("Multiply result differs")
	}
	if len(results) != 8 {
		t.Errorf("got %d results", len(results))
	}
	if sum.Ranks != 8 {
		t.Errorf("summary over %d ranks", sum.Ranks)
	}
	if sum.TotalSeconds() <= 0 {
		t.Error("no time metered")
	}
}

func TestMultiplyInvalidGrid(t *testing.T) {
	a := randomMat(t, 10, 10, 30, 61)
	if _, _, _, err := Multiply(a, a, RunConfig{P: 6, L: 1, Cost: testCM}, nil); err == nil {
		t.Error("invalid grid accepted")
	}
}

func TestMultiplyDiscardKeepsNothing(t *testing.T) {
	a := randomMat(t, 40, 40, 300, 62)
	var seen int64
	results, sum, err := MultiplyDiscard(a, a, RunConfig{P: 4, L: 1, Cost: testCM, Opts: Options{ForceBatches: 4}},
		func(rank int) BatchHook {
			return func(batch int, cols []int32, c *spmat.CSC) *spmat.CSC {
				// The hook still sees real batch data. Hooks run on
				// concurrent rank goroutines, so the flag must be atomic.
				if c.NNZ() > 0 {
					atomic.StoreInt64(&seen, 1)
				}
				return nil
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&seen) == 0 {
		t.Error("hooks saw no data")
	}
	for r, res := range results {
		if res.NNZ() != 0 {
			t.Errorf("rank %d kept %d nonzeros after discard", r, res.NNZ())
		}
	}
	if sum.Step(StepLocalMult).ComputeSeconds <= 0 {
		t.Error("no local multiply time")
	}
}

func TestRunConfigValidate(t *testing.T) {
	if err := (RunConfig{P: 16, L: 4}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (RunConfig{P: 16, L: 3}).Validate(); err == nil {
		t.Error("invalid config accepted")
	}
}
