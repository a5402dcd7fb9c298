package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/genmat"
	"repro/internal/spmat"
)

// This file pins the engine's data path — host split, identity and view
// selections, count-and-place assembly — against oracles that share no code
// with it, and against the one thing views must never do: reach the caller's
// operands.

// assembleOracle is the assembly AssembleResults used to be: every entry
// through a coordinate triple, then FromTriples' counting sort and Compact.
func assembleOracle(results []*Result, rows, cols int32) (*spmat.CSC, error) {
	var ts []spmat.Triple
	for _, r := range results {
		if r == nil {
			continue
		}
		c := r.CSC()
		for x := int32(0); x < c.Cols; x++ {
			rws, vls := c.Column(x)
			for q := range rws {
				ts = append(ts, spmat.Triple{Row: rws[q] + r.RowOffset, Col: r.GlobalCols[x], Val: vls[q]})
			}
		}
	}
	return spmat.FromTriples(rows, cols, ts, nil)
}

// sameCSC reports how got differs from want, array for array.
func sameCSC(got, want *spmat.CSC) error {
	if err := got.Validate(); err != nil {
		return err
	}
	if got.SortedCols != want.SortedCols || !bytes.Equal(got.Serialize(), want.Serialize()) {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	return nil
}

// TestAssembleResultsMatchesTripleOracle runs the schedule × format × batch
// matrix of TestFormatDifferential and holds the count-and-place assembly of
// every run's per-rank results to the triple oracle — as the ranks left them,
// with ranks missing, and with the pieces a hook pruned, emptied, or handed
// back unsorted.
func TestAssembleResultsMatchesTripleOracle(t *testing.T) {
	square := randomMat(t, 60, 60, 700, 171)
	hyperA := genmat.Hypersparse(48, 1024, 2, 172)
	workloads := []struct {
		name string
		a, b *spmat.CSC
	}{
		{"square", square, square},
		{"kmers-AAt", hyperA, spmat.Transpose(hyperA)},
	}
	cfgs := []struct {
		p, l, batches int
		pipeline      bool
	}{
		{p: 1, l: 1, batches: 1},
		{p: 4, l: 1, batches: 1},
		{p: 8, l: 2, batches: 3},
		{p: 16, l: 4, batches: 2, pipeline: true},
		{p: 16, l: 4, batches: 3, pipeline: true},
	}
	hooks := map[string]BatchHook{
		"no hook": nil,
		// Drops every other entry in place and keeps the piece.
		"prune in place": func(_ int, _ []int32, c *spmat.CSC) *spmat.CSC {
			c.Filter(func(row, _ int32, _ float64) bool { return row%2 == 0 })
			return nil
		},
		// Empties odd batches, like MultiplyDiscard does to all of them.
		"empty odd batches": func(batch int, _ []int32, c *spmat.CSC) *spmat.CSC {
			if batch%2 == 1 {
				return spmat.New(c.Rows, c.Cols)
			}
			return nil
		},
		// Hands back a copy whose columns run backwards.
		"unsorted copy": func(_ int, _ []int32, c *spmat.CSC) *spmat.CSC {
			u := c.Clone()
			for j := int32(0); j < u.Cols; j++ {
				rows, vals := u.Column(j)
				slices.Reverse(rows)
				slices.Reverse(vals)
			}
			u.SortedCols = false
			return u
		},
	}
	for _, wl := range workloads {
		for ci, c := range cfgs {
			for _, f := range allFormats {
				for hookName, hook := range hooks {
					_, results, _ := runDistributed(t, c.p, c.l, wl.a, wl.b, Options{
						ForceBatches: c.batches, Pipeline: c.pipeline, Format: f,
					}, hook)
					missing := slices.Clone(results)
					for r := range missing {
						if r%3 == 1 {
							missing[r] = nil
						}
					}
					for _, rs := range [][]*Result{results, missing, slices.Repeat([]*Result{nil}, c.p)} {
						want, err := assembleOracle(rs, wl.a.Rows, wl.b.Cols)
						if err != nil {
							t.Fatal(err)
						}
						got, err := AssembleResults(rs, wl.a.Rows, wl.b.Cols)
						if err != nil {
							t.Fatal(err)
						}
						if err := sameCSC(got, want); err != nil {
							t.Fatalf("%s cfg %d format %v, %s: %v", wl.name, ci, f, hookName, err)
						}
					}
				}
			}
		}
	}
}

// TestAssembleResultsRejectsOutOfRange: a result that does not fit the
// product's shape is an error, as it was when every triple was checked.
func TestAssembleResultsRejectsOutOfRange(t *testing.T) {
	piece := []spmat.Matrix{randomMat(t, 4, 3, 6, 5)}
	for name, r := range map[string]*Result{
		"column past the end":      {Pieces: piece, GlobalCols: []int32{0, 1, 9}},
		"negative column":          {Pieces: piece, GlobalCols: []int32{-1, 0, 1}},
		"rows past the end":        {Pieces: piece, GlobalCols: []int32{0, 1, 2}, RowOffset: 6},
		"negative row offset":      {Pieces: piece, GlobalCols: []int32{0, 1, 2}, RowOffset: -1},
		"fewer global columns":     {Pieces: piece, GlobalCols: []int32{0, 1}},
		"more global columns":      {Pieces: piece, GlobalCols: []int32{0, 1, 2, 3}},
		"a piece of another block": {Pieces: append(piece, spmat.New(5, 1)), GlobalCols: []int32{0, 1, 2, 3}},
	} {
		if _, err := AssembleResults([]*Result{r}, 8, 8); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := ProductSegments([]*Result{r}, 8, 8); err == nil {
			t.Errorf("%s: accepted for streaming", name)
		}
	}
}

// TestHostSplitMatchesPerRankSetup: Multiply deals the operands out on the
// host (distmat's Split) where a rank calling Setup cuts its own pieces out
// (LocalMat). Both must leave every rank with the same pieces, so the same
// per-rank outputs and the same counters, under every format.
func TestHostSplitMatchesPerRankSetup(t *testing.T) {
	a := genmat.Hypersparse(48, 1024, 2, 172)
	b := spmat.Transpose(a)
	for _, f := range allFormats {
		opts := Options{ForceBatches: 2, RunSymbolic: true, Format: f}
		wantC, want, wantSum := runDistributed(t, 16, 4, a, b, opts, nil)
		gotC, got, gotSum, err := Multiply(a, b, RunConfig{P: 16, L: 4, Cost: testCM, Opts: opts}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCSC(gotC, wantC); err != nil {
			t.Fatalf("format %v: %v", f, err)
		}
		for r := range want {
			if err := sameCSC(got[r].CSC(), want[r].CSC()); err != nil {
				t.Fatalf("format %v rank %d: %v", f, r, err)
			}
			if !slices.Equal(got[r].GlobalCols, want[r].GlobalCols) || got[r].RowOffset != want[r].RowOffset ||
				got[r].LocalFlops != want[r].LocalFlops || got[r].UnmergedNNZ != want[r].UnmergedNNZ ||
				got[r].PeakMemBytes != want[r].PeakMemBytes || got[r].SymbolicB != want[r].SymbolicB {
				t.Fatalf("format %v rank %d: results differ: %+v vs %+v", f, r, got[r], want[r])
			}
		}
		for _, step := range Steps {
			if g, w := gotSum.Step(step), wantSum.Step(step); g.WorkUnits != w.WorkUnits || g.Bytes != w.Bytes {
				t.Fatalf("format %v %s: %d units %d bytes, per-rank Setup gives %d and %d", f, step, g.WorkUnits, g.Bytes, w.WorkUnits, w.Bytes)
			}
		}
	}
}

// TestOperandsNeverAliased is the guard on every selection that returns its
// operand or a view of it (a single batch is the local B block itself, a
// single layer's fiber piece is the merged batch itself, fiber pieces share
// the merged batch's entries): whatever a hook does to the piece it is given
// — here it overwrites every value, scrambles every column and sorts it back —
// the caller's A and B must come out of the multiply bit for bit as they went
// in, on grids down to a single rank, where nothing at all is cut.
func TestOperandsNeverAliased(t *testing.T) {
	a := genmat.Hypersparse(48, 1024, 2, 172)
	b := spmat.Transpose(a)
	square := randomMat(t, 60, 60, 700, 171)
	vandal := func(int) BatchHook {
		return func(_ int, _ []int32, c *spmat.CSC) *spmat.CSC {
			for j := int32(0); j < c.Cols; j++ {
				rows, vals := c.Column(j)
				slices.Reverse(rows)
				for q := range vals {
					vals[q] = -1
				}
			}
			c.SortedCols = false
			c.SortColumns()
			return nil
		}
	}
	for _, ops := range [][2]*spmat.CSC{{a, b}, {square, square}} {
		fpA, fpB := spmat.FingerprintOf(ops[0]), spmat.FingerprintOf(ops[1])
		for _, pl := range [][2]int{{1, 1}, {4, 1}, {4, 4}, {16, 4}} {
			for _, batches := range []int{1, 3} {
				for _, pipeline := range []bool{false, true} {
					for _, f := range allFormats {
						rc := RunConfig{P: pl[0], L: pl[1], Cost: testCM, Opts: Options{ForceBatches: batches, Pipeline: pipeline, Format: f}}
						if _, _, _, err := Multiply(ops[0], ops[1], rc, vandal); err != nil {
							t.Fatal(err)
						}
						if _, _, err := MultiplyDiscard(ops[0], ops[1], rc, vandal); err != nil {
							t.Fatal(err)
						}
						if spmat.FingerprintOf(ops[0]) != fpA || spmat.FingerprintOf(ops[1]) != fpB {
							t.Fatalf("p=%d l=%d b=%d pipeline=%v format %v: a hook's writes reached the operands", pl[0], pl[1], batches, pipeline, f)
						}
					}
				}
			}
		}
	}
}

// TestMultiplyBytesBudget bounds what one assembled multiply of a k-mer
// shaped pair (hypersparse A·Aᵀ, the regime where the engine around the
// kernels is the operation) may allocate, as a multiple of the 12 bytes per
// nonzero that holding A, B and C once costs. The distributed run has to
// copy each operand once (the split), hold per-stage products and merged
// batches, and assemble C, and it pays per-block metadata on 16 ranks: 4.9×
// when this test was written. Distribution by per-rank
// RowRange(ColRange(global)) plus assembly through 24-byte triples measured
// 18.5× on this shape; the triples alone are worth 1.3×. Neither fits back
// under the bound.
func TestMultiplyBytesBudget(t *testing.T) {
	a := genmat.Kmer(genmat.KmerConfig{Reads: 1024, Kmers: 65536, KmersPerRead: 16, Overlap: 0.08, Seed: 3})
	b := spmat.Transpose(a)
	rc := RunConfig{P: 16, L: 4, Cost: testCM, Opts: Options{ForceBatches: 1}}
	var c *spmat.CSC
	run := func() {
		var err error
		if c, _, _, err = Multiply(a, b, rc, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: the kernels' scratch free list fills on first use
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	held := float64(12 * (a.NNZ() + b.NNZ() + c.NNZ()))
	const bound = 6
	t.Logf("%.0f bytes per multiply = %.1f x 12·(nnz(A)+nnz(B)+nnz(C)) = %.0f", perRun, perRun/held, held)
	if perRun > bound*held {
		t.Fatalf("one multiply allocates %.0f bytes, %.1f x what A, B and C hold (bound %d x): a per-rank copy of the operands is back",
			perRun, perRun/held, bound)
	}
}
