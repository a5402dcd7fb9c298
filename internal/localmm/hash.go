package localmm

import (
	"fmt"
	"math"
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
// shape in both. Re-taken with the jump-free insert in the direct regime
// (ISSUE 23; the hash regime's insert is unchanged and branches on
// hit-or-new). Two-core 2.1 GHz Xeon shared with other tenants (±15 % run to
// run), 2 MiB of L2 a core, one worker, ns per contribution, hash → direct,
// the run checked in as BENCH_kernels.json. Rows drawn over the whole span,
// which almost never meet:
//
//	rows   contributions   multiply        merge
//	       per column
//	2¹⁰         1          32.7 → 30.5     55.5 → 48.4
//	            4          18.7 → 14.9     25.9 → 22.9
//	           16          15.6 →  9.1     16.0 → 10.1
//	          144           9.8 →  6.7      9.4 →  6.3
//	2¹²         1          32.7 → 31.5     53.6 → 49.5
//	            4          18.6 → 14.1     26.7 → 23.5
//	           16          18.2 → 10.1     17.8 → 12.1
//	          144          11.0 →  7.2      9.8 →  6.9
//	2¹⁴         1          34.8 → 29.8     52.1 → 46.4
//	            4          20.1 → 14.7     29.1 → 22.4
//	           16          15.5 → 13.1     17.1 → 11.9
//	          144          10.3 →  7.5      9.7 →  6.8
//	2¹⁵         1          33.9 → 31.7     52.6 → 51.7
//	            4          20.0 → 16.9     28.7 → 26.6
//	           16          17.4 → 11.8     18.2 → 14.7
//	          144          10.9 →  9.7     10.2 →  8.7
//
// Columns of 144 contributions of which a share land on a row already in the
// table (the hits= cells; count is the symbolic pass, whose direct table is
// the stamps). Here the two sides differ by more than the table: the hash
// side's insert mispredicts at 50 %, the direct side's takes no jump:
//
//	rows   hits    multiply        merge           count
//	2¹⁰     0 %     8.7 →  6.5     10.5 →  8.5      5.5 → 1.3
//	       50 %    11.9 →  4.5     13.9 →  6.8     10.1 → 1.2
//	       90 %     3.2 →  3.2      5.5 →  4.8      3.6 → 1.3
//	2¹⁵     0 %    11.1 →  8.0     11.2 → 11.3      7.1 → 1.5
//	       50 %    12.2 →  4.9     15.5 →  7.7     11.7 → 1.4
//	       90 %     3.6 →  3.8      5.9 →  5.2      3.3 → 1.2
//
// Past the bound the rule gives a row count no direct line, so the constant
// was raised to 16 MiB for one sizing run (both sides from that run, taken
// minutes after the one above):
//
//	2¹⁶         1          39.7 → 44.6     64.0 →  87.3
//	            4          22.5 → 27.2     31.7 →  37.2
//	           16          19.8 → 16.5     19.4 →  17.1
//	          144          12.7 → 11.4     13.4 →  11.0
//	        0 % hits       11.8 → 10.5     14.1 →  12.4
//	       50 % hits       13.5 →  8.8     15.7 →   9.1
//	       90 % hits        4.1 →  5.5      6.4 →   7.5
//	2¹⁸         1          39.5 → 36.9     61.2 → 106.9
//	            4          19.3 → 19.3     33.9 →  42.7
//	           16          18.4 → 15.3     20.3 →  23.4
//	          144          11.2 → 12.2     11.6 →  13.1
//	        0 % hits       12.3 → 15.7     13.7 →  16.0
//	       50 % hits       13.0 → 11.2     15.5 →  11.4
//	       90 % hits        4.6 →  5.4      6.3 →   7.2
//
// The hash side is flat in the row count, as a table sized by the column
// should be. The direct side wins or is level through 2¹⁵ rows (384 KiB) in
// every cell — columns of one contribution included, where 30–50 ns of fixed
// cost per column drown either table, so the rule needs no floor on the
// column's work. At 2¹⁶ (768 KiB) it loses the thin columns and the ones that
// only hit and wins the heavy ones; at 2¹⁸ (3 MiB, past this host's L2) it
// loses everywhere a predictor can learn the hash side's branch, the merge
// first (its table is all it touches; the multiply also streams A), and is
// ahead only on half-hit columns — by the mispredict the hash insert still
// pays, not by its table. So the bound stays: 384 KiB leaves the operands
// room beside the table in a 512 KiB L2, the smallest on current server
// parts.
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
// empty, and stays so). In the direct regime occupied gets room for rows + 1
// entries, one more than the table can hold, whichever regime sized the
// arrays last: the plus-times inserts store the row at occupied[n] before
// they know whether n advances, so a contribution that hits a full table
// still writes one past its last entry.
func (h *hashAccum) sizeFor(want int64, rows int32) {
	h.direct = directRows(rows, accumSlotBytes)
	c, distinct := int(rows), int(rows)+1
	if !h.direct {
		c = tableCap(want, rows)
		distinct = c / 2
	}
	if c > cap(h.rows) {
		h.rows, h.vals = make([]int32, c), make([]float64, c)
		for i := range h.rows {
			h.rows[i] = emptySlot
		}
	} else {
		for _, s := range h.occupied {
			h.rows[s] = emptySlot
		}
		h.rows, h.vals = h.rows[:c], h.vals[:c]
	}
	h.occupied = h.occupied[:0]
	if distinct > cap(h.occupied) {
		h.occupied = make([]int32, 0, distinct)
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

// selectValue returns fresh when isNew is 1 and sum when it is 0, picked on
// the bit patterns with a mask: no jump, and either float comes back exactly
// as it went in, whatever it encodes (−0.0, an infinity, a signalling NaN).
func selectValue(isNew int, fresh, sum float64) float64 {
	m := -uint64(isNew)
	return math.Float64frombits(math.Float64bits(sum)&^m | math.Float64bits(fresh)&m)
}

// b2i is 1 for true and 0 for false; inlined, it compiles to a flag set, not
// a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
//
// In the direct regime, whether a contribution meets its row in the table or
// brings a new one is a coin toss on real blocks (35–60 % meet), so the insert
// must compile without a jump that depends on it: the row and occupied[n] are
// stored either way, n advances by the 0-or-1 outcome, and the value is
// selectValue's pick between v and vals[r]+v. The sum is computed from
// whatever the slot holds, a stale value in an empty slot included, and
// thrown away when the row is new, so every stored value is bit for bit what
// `if present { += } else { = }` stores — but for which payload survives a
// NaN met by a NaN, which is the compiler's operand order in either form —
// and the rows reach occupied in the same order. The jumps left in that loop
// body are the bounds checks, never taken except for a row the operand cannot
// have. Checked once with `go tool objdump -s hashAccumulateColumn` on the
// test binary, go1.24: amd64 sets the outcome with SETNE and masks with
// NEG/AND/OR, arm64 with CSET and NEG/BIC/AND/ORR; written as an `if` that
// assigns the bits, the compiler sinks the float-to-integer move into the
// branch and the jump is back. The hash regime keeps its branches: its probe
// is a data-dependent loop anyway and no bench/ workload measures it.
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
		n, occupied := len(occupied), occupied[:cap(occupied)]
		for p := range bRows {
			i, bv := bRows[p], bVals[p]
			aRows, aVals := a.Column(i)
			aVals = aVals[:len(aRows)]
			for q, r := range aRows {
				v, isNew := aVals[q]*bv, b2i(rows[r] != r)
				rows[r], vals[r], occupied[n] = r, selectValue(isNew, v, vals[r]+v), r
				n += isNew
			}
		}
		acc.occupied = occupied[:n]
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
		n, occupied := len(occupied), occupied[:cap(occupied)]
		for _, part := range parts {
			pVals := part.vals[:len(part.rows)]
			for q, r := range part.rows {
				v, isNew := pVals[q], b2i(rows[r] != r)
				rows[r], vals[r], occupied[n] = r, selectValue(isNew, v, vals[r]+v), r
				n += isNew
			}
		}
		acc.occupied = occupied[:n]
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
