package localmm

import (
	"fmt"
	"math"

	"repro/internal/spmat"
)

// Flops returns the number of multiplications needed to compute A·B
// (the paper's "flops" quantity): Σ_j Σ_{i:B(i,j)≠0} nnz(A(:,i)).
func Flops(a, b *spmat.CSC) int64 {
	checkMulShapes(a, b)
	// Precompute column sizes of A once; then one pass over B's entries.
	var total int64
	for _, i := range b.RowIdx {
		total += a.ColPtr[i+1] - a.ColPtr[i]
	}
	return total
}

// SymbolicSpGEMM computes nnz(A·B) without forming the product — the
// LocalSymbolic routine of Alg 3 — on one worker. It is much cheaper than
// LocalMultiply: no values are touched, and distinct rows are counted in
// the worker's row set (Plan.Symbolic, the one symbolic loop).
func SymbolicSpGEMM(a, b *spmat.CSC) int64 {
	return PlanMul(a, b).Symbolic(1)
}

// rowSet counts the distinct rows of one output column for the symbolic
// pass, in the two regimes of hashAccum under the same byte budget.
//
// Direct regime (directRows at stampBytes a row): one generation stamp per
// row. nextColumn starts a column by taking a new generation, so nothing is
// cleared between columns — a row is new to the column when its stamp is
// not the column's generation — and the table is cleared only when the
// generation counter wraps.
//
// Hash regime: an open-addressing set sized like hashAccum (tableCap), for
// operands whose row count no stamp table should be sized by.
type rowSet struct {
	rows     []int32
	mask     int32
	occupied []int32

	stampTable
}

// stampTable is presence by generation, the direct regime's membership test
// for the row set and for hashAccum alike: one int32 stamp per row, and a row
// belongs to the current column when its stamp is the current generation.
type stampTable struct {
	stamps []int32
	gen    int32
}

// nextColumn returns the stamp table of a rows-tall operand and the
// generation that marks membership in the column now starting.
func (s *stampTable) nextColumn(rows int32) ([]int32, int32) {
	if int(rows) > len(s.stamps) {
		s.stamps, s.gen = make([]int32, rows), 0
	}
	if s.gen == math.MaxInt32 {
		clear(s.stamps)
		s.gen = 0
	}
	s.gen++
	return s.stamps[:rows], s.gen
}

// countColumn returns the number of distinct rows of one output column of
// A·B — the rows of the A columns that bRows selects — where the column
// costs want flops and A is rows tall.
func (s *rowSet) countColumn(a *aCols, bRows []int32, want int64, rows int32) int64 {
	if directRows(rows, stampBytes) {
		var n int64
		stamps, gen := s.nextColumn(rows)
		for _, i := range bRows {
			aRows, _ := a.Column(i)
			for _, r := range aRows {
				isNew := b2i(stamps[r] != gen)
				stamps[r] = gen
				n += int64(isNew)
			}
		}
		return n
	}
	s.sizeFor(want, rows)
	for _, i := range bRows {
		aRows, _ := a.Column(i)
		for _, r := range aRows {
			s.insert(r)
		}
	}
	return int64(len(s.occupied))
}

// sizeFor empties the hash set and sizes it like hashAccum.sizeFor does a
// hash table.
func (s *rowSet) sizeFor(want int64, rows int32) {
	c := tableCap(want, rows)
	if c > len(s.rows) {
		s.rows, s.occupied = make([]int32, c), make([]int32, 0, c/2)
		for i := range s.rows {
			s.rows[i] = emptySlot
		}
	} else {
		for _, i := range s.occupied {
			s.rows[i] = emptySlot
		}
		s.occupied = s.occupied[:0]
	}
	s.mask = int32(c - 1)
}

// insert adds r to the hash set; overfilling panics for the reason
// hashAccum.overfilled gives.
func (s *rowSet) insert(r int32) {
	i := int32(uint32(r)*2654435769) & s.mask
	for {
		switch s.rows[i] {
		case r:
			return
		case emptySlot:
			if 2*int32(len(s.occupied)) > s.mask {
				panic(fmt.Sprintf("localmm: row set sized for %d distinct rows overfilled", (s.mask+1)/2))
			}
			s.rows[i] = r
			s.occupied = append(s.occupied, i)
			return
		}
		i = (i + 1) & s.mask
	}
}
