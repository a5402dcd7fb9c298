package core

import (
	"bytes"
	"strings"
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

// A dealt operand runs only on the run it was dealt for: another role, layer
// count, grid, format or inner dimension is an error before any rank starts.
// On the run it fits, one Dealt serves repeated runs, each with the product a
// fresh deal gives.
func TestDealtOperandMustFitTheRun(t *testing.T) {
	a := randomMat(t, 40, 30, 300, 63)
	b := randomMat(t, 30, 20, 200, 64)
	rc := RunConfig{P: 16, L: 4, Cost: testCM, Opts: Options{Format: spmat.FormatDCSC, ForceBatches: 2}}
	want, _, _, err := Multiply(a, b, rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	da, err := Deal(a, RoleA, rc)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Deal(b, RoleB, rc)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		results, _, err := MultiplyDealt(da, db, rc, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AssembleResults(results, a.Rows, b.Cols)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Serialize(), want.Serialize()) {
			t.Fatalf("run %d on the dealt operands differs from Multiply", run)
		}
	}

	layers, format, ranks := rc, rc, rc
	layers.L = 1
	format.Opts.Format = spmat.FormatAuto
	ranks.P = 4
	inner, err := Deal(randomMat(t, 31, 20, 200, 65), RoleB, rc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		a, b *Dealt
		rc   RunConfig
		want string
	}{
		{"layer count", da, db, layers, "dealt as A for q=2, l=4"},
		{"format", da, db, format, "format dcsc"},
		{"grid", da, db, ranks, "q=1"},
		{"roles", db, da, rc, "the A operand was dealt as B"},
		{"inner dimension", da, inner, rc, "inner dimension mismatch"},
	} {
		if _, _, err := MultiplyDealt(c.a, c.b, c.rc, nil, false); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one that says %q", c.name, err, c.want)
		}
	}
}
