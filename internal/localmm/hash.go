package localmm

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// hashAccum is an open-addressing (linear probing) row→value accumulator with
// power-of-two capacity. The occupied slot list makes draining O(distinct)
// instead of O(capacity). A reused accumulator probes only the leading
// mask+1 slots of its arrays — the capacity the current column needs — so a
// short column after a long one still works in a table that fits the cache.
type hashAccum struct {
	rows     []int32
	vals     []float64
	mask     int32
	occupied []int32 // slot indices in insertion order
}

const emptySlot = int32(-1)

// maxTableCap is the largest table an int32 slot index can address.
const maxTableCap = 1 << 30

// tableCap returns the power-of-two capacity that holds the distinct rows of
// one column at load factor <= 0.5. want is the column's contribution count
// (flops or input entries), an upper bound that can exceed the row dimension
// by orders of magnitude; a column cannot hold more distinct rows than the
// operand has, so the bound is clamped by rows. A column that still needs
// more slots than int32 addresses is a bug upstream, not a table to build.
func tableCap(want int64, rows int32) int {
	if want > int64(rows) {
		want = int64(rows)
	}
	if 2*want > maxTableCap {
		panic(fmt.Sprintf("localmm: column of %d distinct rows exceeds the accumulator's %d slots", want, maxTableCap))
	}
	if want <= 4 {
		return 8
	}
	return 1 << bits.Len64(uint64(2*want-1))
}

// sizeFor empties the accumulator and sizes it for the distinct rows of a
// column with want contributions into a rows-tall operand. The arrays are
// reallocated only when that exceeds the capacity they have; otherwise the
// column probes their leading tableCap slots.
func (h *hashAccum) sizeFor(want int64, rows int32) {
	c := tableCap(want, rows)
	if c > len(h.rows) {
		h.rows, h.vals, h.occupied = make([]int32, c), make([]float64, c), make([]int32, 0, c/2)
		for i := range h.rows {
			h.rows[i] = emptySlot
		}
	} else {
		for _, s := range h.occupied {
			h.rows[s] = emptySlot
		}
		h.occupied = h.occupied[:0]
	}
	h.mask = int32(c - 1)
}

// hash scrambles the row index; the multiplier is the 32-bit Fibonacci
// constant.
func (h *hashAccum) hash(r int32) int32 {
	return int32(uint32(r)*2654435769) & h.mask
}

// overfilled panics when a new row arrives at a table already holding the
// distinct rows it was sized for. Callers size the table with tableCap, so
// the load factor never passes 0.5 and every probe sequence ends at an empty
// slot; a fuller table would make a later probe spin, so the insert paths
// check on the new-row branch only — once per distinct row, never per
// contribution — and fail here.
func (h *hashAccum) overfilled() {
	panic(fmt.Sprintf("localmm: accumulator sized for %d distinct rows overfilled", (h.mask+1)/2))
}

// addPlus accumulates v into row r with ordinary +. Fast path for the
// arithmetic semiring.
func (h *hashAccum) addPlus(r int32, v float64) {
	s := h.hash(r)
	for {
		switch h.rows[s] {
		case r:
			h.vals[s] += v
			return
		case emptySlot:
			if 2*int32(len(h.occupied)) > h.mask {
				h.overfilled()
			}
			h.rows[s] = r
			h.vals[s] = v
			h.occupied = append(h.occupied, s)
			return
		}
		s = (s + 1) & h.mask
	}
}

// add accumulates v into row r with the semiring's Add.
func (h *hashAccum) add(r int32, v float64, addFn func(a, b float64) float64) {
	s := h.hash(r)
	for {
		switch h.rows[s] {
		case r:
			h.vals[s] = addFn(h.vals[s], v)
			return
		case emptySlot:
			if 2*int32(len(h.occupied)) > h.mask {
				h.overfilled()
			}
			h.rows[s] = r
			h.vals[s] = v
			h.occupied = append(h.occupied, s)
			return
		}
		s = (s + 1) & h.mask
	}
}

// drainInto appends the accumulated (row, value) pairs to the output slices
// in insertion order (unsorted) and returns the extended slices.
func (h *hashAccum) drainInto(rows []int32, vals []float64) ([]int32, []float64) {
	n, m := len(rows), len(h.occupied)
	rows = slices.Grow(rows, m)[:n+m]
	vals = slices.Grow(vals, m)[:n+m]
	for i, s := range h.occupied {
		rows[n+i] = h.rows[s]
		vals[n+i] = h.vals[s]
	}
	return rows, vals
}

// checkMulShapes panics when the operand shapes are incompatible; shape
// errors here are programmer errors in the distribution logic.
func checkMulShapes(a, b *spmat.CSC) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("localmm: inner dimension mismatch: A is %v, B is %v", a, b))
	}
}

// HashSpGEMM multiplies A·B with the sort-free hash kernel of Sec. IV-D
// ("unsorted-hash"). Neither operand needs sorted columns and the result's
// columns are unsorted. This is the paper's new Local-Multiply kernel.
func HashSpGEMM(a, b *spmat.CSC, sr *semiring.Semiring) *spmat.CSC {
	return ParallelSpGEMM(KernelHashUnsorted, a, b, sr, 1)
}

// HashSpGEMMSorted is HashSpGEMM followed by sorting each output column. It
// matches how hash kernels were used before the sort-free observation.
func HashSpGEMMSorted(a, b *spmat.CSC, sr *semiring.Semiring) *spmat.CSC {
	return ParallelSpGEMM(KernelHashSorted, a, b, sr, 1)
}

// hashAccumulateColumn feeds one output column's products into acc, in B
// entry order and then A entry order — the accumulation order every kernel
// shares. The A side is read through aCols, so the per-entry lookup is O(1)
// for either format.
func hashAccumulateColumn(acc *hashAccum, a *aCols, bRows []int32, bVals []float64, sr *semiring.Semiring, plusTimes bool) {
	if plusTimes {
		for p := range bRows {
			i, bv := bRows[p], bVals[p]
			aRows, aVals := a.Column(i)
			for q := range aRows {
				acc.addPlus(aRows[q], aVals[q]*bv)
			}
		}
	} else {
		for p := range bRows {
			i, bv := bRows[p], bVals[p]
			aRows, aVals := a.Column(i)
			for q := range aRows {
				acc.add(aRows[q], sr.Mul(aVals[q], bv), sr.Add)
			}
		}
	}
}

// hashAccumulateParts feeds one merged column's operand contributions into
// acc in operand order, which fixes the floating-point result.
func hashAccumulateParts(acc *hashAccum, parts []colPart, sr *semiring.Semiring, plusTimes bool) {
	for _, part := range parts {
		if plusTimes {
			for p := range part.rows {
				acc.addPlus(part.rows[p], part.vals[p])
			}
		} else {
			for p := range part.rows {
				acc.add(part.rows[p], part.vals[p], sr.Add)
			}
		}
	}
}
