package localmm

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// hashAccum is a row→value accumulator for one output column with two slot
// functions, chosen by sizeFor from the operand's row count.
//
// Hash regime (the paper's, Sec. IV-D): open addressing with linear probing
// in a power-of-two table sized by the column, not by the row range — the
// only table a block of 10⁶–10⁷ rows can afford. A reused accumulator probes
// only the leading slots of its arrays — the capacity the current column
// needs — so a short column after a long one still works in a table that
// fits the cache.
//
// Direct regime: slot = row. No hash, no probe, no overfill; a row outside
// the operand is Go's index panic (the table is as long as the operand is
// tall). It runs whenever a rows-tall table fits
// directTableBytes — the dense accumulator of Buluç & Gilbert, which is the
// wrong tool only when the row dimension dwarfs the work.
//
// Both regimes keep the same arrays and the same bookkeeping: rows[s] holds
// the row stored in slot s (in the direct regime rows[r] == r marks
// presence), occupied records the slots in insertion order, and the next
// sizeFor clears through occupied. A worker can therefore alternate regimes
// column by column with nothing stale, and the unsorted drain — occupied
// order — emits the same entries in the same order whichever regime
// accumulated them: contributions arrive in the same order, so rows are
// first seen in the same order.
type hashAccum struct {
	rows     []int32
	vals     []float64
	mask     int32 // len(rows) − 1: the probe mask of the hash regime
	direct   bool
	occupied []int32  // slot indices in insertion order
	present  []uint64 // direct regime: drainAscendingInto's row bitmap
}

const emptySlot = int32(-1)

// maxTableCap is the largest table an int32 slot index can address.
const maxTableCap = 1 << 30

// directTableBytes is the largest direct-indexed table a worker keeps: an
// operand takes the direct regime when one slot per row fits it (12 bytes a
// row for the accumulator: 2¹⁵ rows; 4 for the symbolic row set: 3·2¹⁵) and
// the hash regime otherwise. It is read off BenchmarkAccumulatorCrossover
// (make bench-kernels, BENCH_kernels.json), which reaches each regime the way
// the kernels do, by the declared row count, and runs the same inlined loop
// shape in both. Two-core 2.1 GHz Xeon shared with other tenants (±15 % run
// to run), 2 MiB of L2 a core, one worker, ns per contribution, hash →
// direct, the run checked in as BENCH_kernels.json:
//
//	rows   contributions   multiply        merge
//	       per column
//	2¹⁰         1          31.5 → 28.8     53.9 → 49.0
//	            4          17.3 → 11.8     28.5 → 21.4
//	           16          15.4 →  7.0     16.9 →  9.4
//	          144           8.3 →  6.3      9.1 →  5.9
//	2¹²         1          34.2 → 32.8     55.6 → 56.0
//	            4          18.6 → 13.1     26.6 → 24.6
//	           16          14.1 →  8.3     15.9 → 10.6
//	          144           9.2 →  7.1      9.2 →  6.9
//	2¹⁴         1          33.1 → 29.4     57.7 → 47.8
//	            4          17.3 → 11.5     29.7 → 24.2
//	           16          15.0 → 10.0     16.7 → 12.1
//	          144          11.1 →  8.6     10.2 →  8.0
//	2¹⁵         1          33.9 → 30.8     66.8 → 55.0
//	            4          18.3 → 15.4     28.8 → 27.5
//	           16          16.4 → 10.2     16.1 → 11.7
//	          144          10.8 →  9.3      9.9 →  9.9
//
// Past the bound the rule gives a row count no direct line, so the constant
// was raised to 16 MiB for one sizing run (hash figures from a full run
// minutes earlier, where the hash side read 8.5–8.9 at 144 for every row
// count):
//
//	2¹⁶         1          28.7 → 29.5     47.3 → 56.7
//	            4          15.6 → 12.7     23.3 → 21.2
//	           16          13.6 → 11.0     14.9 → 10.6
//	          144           8.9 →  8.7      8.7 →  8.9
//	2¹⁸         1          27.3 → 25.8     44.7 → 72.4
//	            4          15.7 → 13.0     23.3 → 32.3
//	           16          13.0 → 10.4     14.3 → 17.1
//	          144           8.7 → 11.9      8.3 → 17.4
//
// The hash side is flat in the row count, as a table sized by the column
// should be. The direct side wins or is level through 2¹⁵ rows (384 KiB) in
// every cell — columns of one contribution included, where 25–50 ns of fixed
// cost per column drown either table, so the rule needs no floor on the
// column's work — thins out at 2¹⁶ and loses from 2¹⁸ on, the merge first
// (its table is all it touches; the multiply also streams A). 384 KiB leaves
// the operands room beside the table in a 512 KiB L2, the smallest on
// current server parts.
const directTableBytes = 384 << 10

// Bytes per row of the two direct tables.
const (
	accumSlotBytes = 12 // int32 row + float64 value
	stampBytes     = 4  // int32 generation stamp
)

// directRows reports whether a direct table of slotBytes per row over a
// rows-tall operand fits directTableBytes.
func directRows(rows int32, slotBytes int64) bool {
	return int64(rows)*slotBytes <= directTableBytes
}

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

// sizeFor empties the accumulator and sizes it for a column with want
// contributions into a rows-tall operand: one slot per row when that fits
// directTableBytes, tableCap slots otherwise. The arrays are reallocated
// only when that exceeds the capacity they have; otherwise rows and vals are
// resliced to the leading slots the column uses (every slot past them is
// empty, and stays so).
func (h *hashAccum) sizeFor(want int64, rows int32) {
	h.direct = directRows(rows, accumSlotBytes)
	c, distinct := int(rows), int(rows)
	if !h.direct {
		c = tableCap(want, rows)
		distinct = c / 2
	}
	if c > cap(h.rows) {
		h.rows, h.vals, h.occupied = make([]int32, c), make([]float64, c), make([]int32, 0, distinct)
		for i := range h.rows {
			h.rows[i] = emptySlot
		}
	} else {
		for _, s := range h.occupied {
			h.rows[s] = emptySlot
		}
		h.rows, h.vals, h.occupied = h.rows[:c], h.vals[:c], h.occupied[:0]
	}
	h.mask = int32(c - 1)
}

// overfilled panics when a new row arrives at a hash table already holding
// the distinct rows it was sized for. Callers size the table with tableCap,
// so the load factor never passes 0.5 and every probe sequence ends at an
// empty slot; a fuller table would make a later probe spin, so the insert
// paths check on the new-row branch only — once per distinct row, never per
// contribution — and fail here. (A direct table cannot overfill: its slot is
// the row, and the row is below its length.)
func (h *hashAccum) overfilled() {
	panic(fmt.Sprintf("localmm: accumulator sized for %d distinct rows overfilled", (h.mask+1)/2))
}

// slot returns where row r lives: the slot holding it, or the empty slot it
// is to take. In the hash regime the multiplier is the 32-bit Fibonacci
// constant. The plus-times loops below inline this; everything else calls
// it.
func (h *hashAccum) slot(r int32) int32 {
	if h.direct {
		return r
	}
	s := int32(uint32(r)*2654435769) & h.mask
	for h.rows[s] != r {
		if h.rows[s] == emptySlot {
			if 2*int32(len(h.occupied)) > h.mask {
				h.overfilled()
			}
			break
		}
		s = (s + 1) & h.mask
	}
	return s
}

// add accumulates v into row r with the semiring's Add.
func (h *hashAccum) add(r int32, v float64, addFn func(a, b float64) float64) {
	s := h.slot(r)
	if h.rows[s] == r {
		h.vals[s] = addFn(h.vals[s], v)
		return
	}
	h.rows[s], h.vals[s] = r, v
	h.occupied = append(h.occupied, s)
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

// walkRowsPerEntry bounds the table a sorted drain walks per entry it emits.
// The walk reads one presence word per 64 rows of table and costs ~3 ns an
// entry; the sort it replaces costs 25–35 ns an entry, less for the handful
// an insertion sort takes. Measured on the sorted four-operand merge, 2¹⁷
// entries a call, two-core 2.1 GHz Xeon (ms per call, sort → walk): over 2¹⁰
// rows 3.0 → 3.2 at 8 entries a column, 3.7 → 2.3 at 16, 5.1 → 1.3 at 64,
// 5.9 → 1.3 at 256; over 2¹⁴ rows 3.5 → 4.6 at 16, 5.5 → 3.6 at 32, 5.7 → 3.1
// at 64, 6.5 → 2.1 at 256. The walk wins up to eight words an entry.
const walkRowsPerEntry = 512

// walks reports whether a sorted drain walks the table instead of sorting
// the drained column: the accumulator is direct and its table is at most
// walkRowsPerEntry rows per entry.
func (h *hashAccum) walks() bool {
	return h.direct && len(h.rows) <= walkRowsPerEntry*len(h.occupied)
}

// drainAscendingInto appends a direct table's column in ascending row order
// without sorting it: the occupied rows are marked in a bitmap, and the
// bitmap is walked and left all zero.
func (h *hashAccum) drainAscendingInto(rows []int32, vals []float64) ([]int32, []float64) {
	m, words := len(h.occupied), (len(h.rows)+63)>>6
	if len(h.present) < words {
		h.present = make([]uint64, words)
	}
	present := h.present[:words]
	for _, r := range h.occupied {
		present[r>>6] |= 1 << (r & 63)
	}
	n := len(rows)
	rows = slices.Grow(rows, m)[:n+m]
	vals = slices.Grow(vals, m)[:n+m]
	for w, word := range present {
		present[w] = 0
		for ; word != 0; word &= word - 1 {
			r := int32(w<<6 + bits.TrailingZeros64(word))
			rows[n], vals[n] = r, h.vals[r]
			n++
		}
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
// for either format. Under plus-times the regime is picked once for the
// column and the insert is written out in the loop, on locals: a call per
// contribution costs more than the contribution.
func hashAccumulateColumn(acc *hashAccum, a *aCols, bRows []int32, bVals []float64, sr *semiring.Semiring, plusTimes bool) {
	if !plusTimes {
		for p := range bRows {
			i, bv := bRows[p], bVals[p]
			aRows, aVals := a.Column(i)
			for q := range aRows {
				acc.add(aRows[q], sr.Mul(aVals[q], bv), sr.Add)
			}
		}
		return
	}
	rows, vals, occupied, mask := acc.rows, acc.vals, acc.occupied, acc.mask
	vals = vals[:len(rows)]
	if acc.direct {
		for p := range bRows {
			i, bv := bRows[p], bVals[p]
			aRows, aVals := a.Column(i)
			aVals = aVals[:len(aRows)]
			for q, r := range aRows {
				if v := aVals[q] * bv; rows[r] == r {
					vals[r] += v
				} else {
					rows[r], vals[r] = r, v
					occupied = append(occupied, r)
				}
			}
		}
		acc.occupied = occupied
		return
	}
	for p := range bRows {
		i, bv := bRows[p], bVals[p]
		aRows, aVals := a.Column(i)
		aVals = aVals[:len(aRows)]
		for q, r := range aRows {
			v := aVals[q] * bv
			s := int32(uint32(r)*2654435769) & mask
			for rows[s] != r && rows[s] != emptySlot {
				s = (s + 1) & mask
			}
			if rows[s] == r {
				vals[s] += v
				continue
			}
			if 2*int32(len(occupied)) > mask {
				acc.overfilled()
			}
			rows[s], vals[s] = r, v
			occupied = append(occupied, s)
		}
	}
	acc.occupied = occupied
}

// hashAccumulateParts feeds one merged column's operand contributions into
// acc in operand order, which fixes the floating-point result; the inserts
// are hashAccumulateColumn's, without the multiplication.
func hashAccumulateParts(acc *hashAccum, parts []colPart, sr *semiring.Semiring, plusTimes bool) {
	if !plusTimes {
		for _, part := range parts {
			for p := range part.rows {
				acc.add(part.rows[p], part.vals[p], sr.Add)
			}
		}
		return
	}
	rows, vals, occupied, mask := acc.rows, acc.vals, acc.occupied, acc.mask
	vals = vals[:len(rows)]
	if acc.direct {
		for _, part := range parts {
			pVals := part.vals[:len(part.rows)]
			for q, r := range part.rows {
				if rows[r] == r {
					vals[r] += pVals[q]
				} else {
					rows[r], vals[r] = r, pVals[q]
					occupied = append(occupied, r)
				}
			}
		}
		acc.occupied = occupied
		return
	}
	for _, part := range parts {
		pVals := part.vals[:len(part.rows)]
		for q, r := range part.rows {
			s := int32(uint32(r)*2654435769) & mask
			for rows[s] != r && rows[s] != emptySlot {
				s = (s + 1) & mask
			}
			if rows[s] == r {
				vals[s] += pVals[q]
				continue
			}
			if 2*int32(len(occupied)) > mask {
				acc.overfilled()
			}
			rows[s], vals[s] = r, pVals[q]
			occupied = append(occupied, s)
		}
	}
	acc.occupied = occupied
}
