package localmm

import (
	"fmt"

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

// ColFlops returns the per-column multiplication counts for A·B.
func ColFlops(a, b *spmat.CSC) []int64 {
	checkMulShapes(a, b)
	out := make([]int64, b.Cols)
	for j := int32(0); j < b.Cols; j++ {
		rows, _ := b.Column(j)
		var f int64
		for _, i := range rows {
			f += a.ColNNZ(i)
		}
		out[j] = f
	}
	return out
}

// symbolicStampLimit bounds the dense stamp array the symbolic kernel keeps
// (one int32 per output row). Local SUMMA blocks are far below it; gigantic
// row spaces fall back to the hash set.
const symbolicStampLimit = 1 << 24

// SymbolicSpGEMM computes nnz(A·B) without forming the product — the
// LocalSymbolic routine of Alg 3. It is much cheaper than LocalMultiply: no
// values are touched, and row de-duplication uses a generation-stamped dense
// array (O(1) insert, no collisions, no per-column clearing) instead of a
// hash table whenever the row dimension permits.
func SymbolicSpGEMM(a, b *spmat.CSC) int64 {
	checkMulShapes(a, b)
	if a.Rows > symbolicStampLimit {
		return symbolicHashed(a, b)
	}
	stamps := make([]int32, a.Rows)
	for i := range stamps {
		stamps[i] = -1
	}
	var total int64
	for j := int32(0); j < b.Cols; j++ {
		bRows, _ := b.Column(j)
		for _, i := range bRows {
			aRows := a.RowIdx[a.ColPtr[i]:a.ColPtr[i+1]]
			for _, r := range aRows {
				if stamps[r] != j {
					stamps[r] = j
					total++
				}
			}
		}
	}
	return total
}

// symbolicHashed is the hash-set fallback for enormous row spaces.
func symbolicHashed(a, b *spmat.CSC) int64 {
	var total int64
	for _, n := range SymbolicColNNZ(a, b) {
		total += n
	}
	return total
}

// SymbolicColNNZ returns the per-column nnz of A·B.
func SymbolicColNNZ(a, b *spmat.CSC) []int64 {
	checkMulShapes(a, b)
	out := make([]int64, b.Cols)
	var set rowSet
	for j := int32(0); j < b.Cols; j++ {
		bRows, _ := b.Column(j)
		var colFlops int64
		for _, i := range bRows {
			colFlops += a.ColNNZ(i)
		}
		if colFlops == 0 {
			continue
		}
		set.sizeFor(colFlops, a.Rows)
		for _, i := range bRows {
			aRows, _ := a.Column(i)
			for _, r := range aRows {
				set.insert(r)
			}
		}
		out[j] = int64(len(set.occupied))
	}
	return out
}

// CompressionFactor returns flops / nnz(A·B), the paper's cf statistic
// (cf ≥ 1; high cf means heavy accumulation). Returns 0 for an empty product.
func CompressionFactor(a, b *spmat.CSC) float64 {
	nnz := SymbolicSpGEMM(a, b)
	if nnz == 0 {
		return 0
	}
	return float64(Flops(a, b)) / float64(nnz)
}

// rowSet is an open-addressing set of row indices, sized like hashAccum
// (tableCap) and used by the symbolic entry points only.
type rowSet struct {
	rows     []int32
	mask     int32
	occupied []int32
}

// sizeFor empties the set and sizes it like hashAccum.sizeFor.
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

// insert adds r to the set; overfilling panics for the reason
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
