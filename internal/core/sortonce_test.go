package core

import (
	"fmt"
	"testing"

	"repro/internal/genmat"
	"repro/internal/spmat"
)

// This file holds the paths on which the one sort of an output entry moved —
// a one-layer grid's Merge-Layer draining in ascending order with Merge-Fiber
// passing its operand through, a one-operand merge being the operand, a lone
// unsorted product sorted where it lies — to an oracle that shares no merge
// with the run under test: the same product computed from the transposed
// operands, whose blocks, stage products and merge inputs are all different.

// strictlyAscending reports the first column of m whose rows are not strictly
// ascending — unsorted, or holding a duplicate a merge should have summed.
func strictlyAscending(m *spmat.CSC) error {
	for j := int32(0); j < m.Cols; j++ {
		rows, _ := m.Column(j)
		for q := 1; q < len(rows); q++ {
			if rows[q-1] >= rows[q] {
				return fmt.Errorf("column %d: row %d is followed by row %d", j, rows[q-1], rows[q])
			}
		}
	}
	return nil
}

// TestTransposeIdentityOverMergePaths asserts (A·B)ᵀ == Bᵀ·Aᵀ entry for entry
// on integer-valued operands — sums are exact, so the two sides may accumulate
// in any order — over every layer count of a 16-rank grid and the one-rank
// grid, both schedules and all three formats. l = 1 runs the sorted
// Merge-Layer and the pass-through Merge-Fiber, l = 16 (q = 1) the
// pass-through Merge-Layer, p = 1 the lone unsorted operand. Every rank's
// piece must come out sorted and duplicate-free whatever path sorted it.
func TestTransposeIdentityOverMergePaths(t *testing.T) {
	rectA, rectB := randomMat(t, 70, 50, 600, 301), randomMat(t, 50, 90, 700, 302)
	hyper := genmat.Hypersparse(48, 1024, 2, 303) // DCSC blocks under auto
	for q := range hyper.Val {
		hyper.Val[q] = float64(1 + q%7)
	}
	workloads := []struct {
		name string
		a, b *spmat.CSC
	}{
		{"rect", rectA, rectB},
		{"hyper", spmat.Transpose(hyper), hyper},
	}
	grids := []struct{ p, l int }{{16, 1}, {16, 4}, {16, 16}, {1, 1}}
	formats := []spmat.Format{spmat.FormatCSC, spmat.FormatDCSC, spmat.FormatAuto}
	for _, w := range workloads {
		at, bt := spmat.Transpose(w.a), spmat.Transpose(w.b)
		for _, g := range grids {
			for _, pipeline := range []bool{false, true} {
				for _, f := range formats {
					name := fmt.Sprintf("%s/p%d-l%d/pipeline=%t/%v", w.name, g.p, g.l, pipeline, f)
					opts := Options{ForceBatches: 2, Pipeline: pipeline, Format: f}
					ab, abRanks, _ := runDistributed(t, g.p, g.l, w.a, w.b, opts, nil)
					btat, btatRanks, _ := runDistributed(t, g.p, g.l, bt, at, opts, nil)
					for _, ranks := range [][]*Result{abRanks, btatRanks} {
						for r, res := range ranks {
							c := res.CSC()
							if !c.SortedCols {
								t.Errorf("%s: rank %d's piece is not marked sorted", name, r)
							}
							if err := strictlyAscending(c); err != nil {
								t.Errorf("%s: rank %d's piece: %v", name, r, err)
							}
						}
					}
					want := spmat.Transpose(ab)
					want.SortColumns()
					btat.SortColumns()
					if !spmat.Equal(want, btat) {
						t.Errorf("%s: (A·B)ᵀ (%v) differs from Bᵀ·Aᵀ (%v)", name, want, btat)
					}
				}
			}
		}
	}
}
