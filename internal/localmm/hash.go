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
// The regimes share the value array and occupied, the slots in insertion
// order, and differ in how a slot says it is taken. The hash regime keeps the
// row in rows[s], emptySlot elsewhere, and empties the slots it used as it
// drains them, so its table is all empty between columns. The direct regime
// keeps a generation stamp per row (stampTable, as the symbolic pass's rowSet
// does): row r is in the column when stamps[r] is the column's generation, a
// new column takes a new generation, and nothing is cleared — not the stamps,
// and not the values, which are read only where the stamp says they were
// written in this column. A worker can therefore alternate regimes column by
// column with nothing stale, and the unsorted drain — occupied order — emits
// the same entries in the same order whichever regime accumulated them:
// contributions arrive in the same order, so rows are first seen in the same
// order.
type hashAccum struct {
	rows     []int32 // hash regime: the row in each slot
	vals     []float64
	mask     int32 // hash regime: len(rows) − 1, the probe mask
	direct   bool
	occupied []int32  // slot indices in insertion order
	present  []uint64 // direct regime: drainAscendingInto's row bitmap

	stamped stampTable
	stamps  []int32 // direct regime: the column's view of stamped, one stamp a row
	gen     int32   // direct regime: the stamp of a row the column holds
}

const emptySlot = int32(-1)

// maxTableCap is the largest table an int32 slot index can address.
const maxTableCap = 1 << 30

// directTableBytes is the largest direct-indexed table a worker keeps: an
// operand takes the direct regime when one slot per row fits it (12 bytes a
// row for the accumulator — a 4-byte stamp and an 8-byte value: 2¹⁵ rows; 4
// for the symbolic row set: 3·2¹⁵) and the hash regime otherwise. It is read
// off BenchmarkAccumulatorCrossover (make bench-kernels, BENCH_kernels.json),
// which reaches each regime the way the kernels do, by the declared row
// count, and runs the same inlined loop shape in both. Re-taken with the
// direct table stamped instead of cleared (ISSUE 24; the direct insert takes
// no jump since ISSUE 23, the hash regime's insert is unchanged and branches
// on hit-or-new, and its table is now emptied by its own drain). Two-core
// 2.1 GHz Xeon shared with other tenants (±15 % run to run), 2 MiB of L2 a
// core, one worker, ns per contribution, hash → direct, from the sizing run
// taken when the direct table was first stamped. BENCH_kernels.json holds
// later runs, whose cells read differently (merge at 2¹⁵ rows, 4
// contributions a column: direct 1.02× hash there, 0.90× below), but by its
// medians the verdict stands: up to 2¹⁵ rows direct ties or wins from 4
// contributions a column and loses only at one. Rows drawn over the whole
// span, which almost never meet:
//
//	rows   contributions   multiply        merge
//	       per column
//	2¹⁰         1          30.2 → 31.3     46.6 → 46.9
//	            4          16.3 → 13.4     29.3 → 25.3
//	           16          13.1 →  7.6     15.7 →  8.8
//	          144           7.7 →  5.2      7.9 →  4.8
//	2¹²         1          33.3 → 32.7     49.1 → 47.2
//	            4          18.2 → 15.1     27.8 → 26.2
//	           16          15.4 →  7.8     17.2 →  9.1
//	          144           8.8 →  6.3      8.5 →  5.6
//	2¹⁴         1          30.1 → 31.0     47.9 → 48.9
//	            4          16.2 → 13.9     26.3 → 23.0
//	           16          13.4 →  8.3     15.8 →  9.0
//	          144           8.6 →  6.3      8.6 →  5.6
//	2¹⁵         1          32.0 → 32.0     46.9 → 52.3
//	            4          15.8 → 14.4     27.0 → 24.2
//	           16          13.0 →  8.4     14.9 →  9.5
//	          144           9.0 →  6.2      8.2 →  5.7
//
// Columns of 144 contributions of which a share land on a row already in the
// table (the hits= cells; count is the symbolic pass, whose direct table is
// the stamps alone). Here the two sides differ by more than the table: the
// hash side's insert mispredicts at 50 %, the direct side's takes no jump:
//
//	rows   hits    multiply        merge           count
//	2¹⁰     0 %     6.6 →  4.5      8.6 →  6.1      4.8 → 1.1
//	       50 %    10.2 →  3.7     12.5 →  5.3      9.6 → 1.1
//	       90 %     2.7 →  3.1      5.3 →  4.5      3.0 → 1.1
//	2¹⁵     0 %     8.1 →  5.7     10.3 →  7.3      6.5 → 1.3
//	       50 %    10.5 →  4.2     13.2 →  5.9      9.6 → 1.2
//	       90 %     2.9 →  3.2      4.9 →  4.8      2.9 → 1.1
//
// Past the bound the rule gives a row count no direct line, so the constant
// was raised to 16 MiB for one sizing run (both sides from that run, taken
// minutes after the one above; the benchmark has no hits= cells there):
//
//	2¹⁶         1          29.7 → 32.5     47.4 → 55.7
//	            4          16.5 → 15.1     27.7 → 28.9
//	           16          14.6 → 10.3     17.5 → 12.6
//	          144          10.3 →  7.7     10.2 →  7.9
//	2¹⁸         1          28.8 → 31.9     46.0 → 78.3
//	            4          19.0 → 17.4     28.8 → 37.1
//	           16          17.0 → 13.5     18.5 → 19.2
//	          144          11.2 →  9.5     11.5 → 12.5
//
// The hash side is flat in the row count, as a table sized by the column
// should be. The direct side wins or is level through 2¹⁵ rows (384 KiB) in
// every cell but the ones that only hit, where the two are within 0.5 ns —
// columns of one contribution included, where 30–50 ns of fixed cost per
// column drown either table, so the rule needs no floor on the column's work.
// Stamping moved the far side less than the near one: at 2¹⁶ (768 KiB) the
// direct table still loses the columns of one contribution (the merge's by
// 18 %) and wins the heavy ones; at 2¹⁸ (3 MiB, past this host's L2) the
// merge, whose table is all it touches, loses in every cell — by 70 % on thin
// columns — while the multiply, which also streams A, is 8–20 % ahead on all
// but the thinnest. So the bound stays: 384 KiB leaves the operands room
// beside the table in a 512 KiB L2, the smallest on current server parts.
const directTableBytes = 384 << 10

// Bytes per row of the two direct tables.
const (
	accumSlotBytes = 12 // int32 generation stamp + float64 value
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
// directTableBytes, tableCap slots otherwise. Arrays are reallocated only
// when that exceeds the capacity they have; otherwise they are resliced to
// the leading slots the column uses (every hash slot past them is empty, and
// stays so). Emptying costs nothing: a direct column takes the next
// generation of stamps, and a hash column finds the table its predecessor
// drained — the loop below runs only for a hash column that was sized and
// then abandoned undrained. In the direct regime occupied gets room for
// rows + 1 entries, one more than the table can hold, whichever regime sized
// the arrays last: the plus-times inserts store the row at occupied[n] before
// they know whether n advances, so a contribution that hits a full table
// still writes one past its last entry.
func (h *hashAccum) sizeFor(want int64, rows int32) {
	if !h.direct {
		for _, s := range h.occupied {
			h.rows[s] = emptySlot
		}
	}
	h.occupied = h.occupied[:0]
	h.direct = directRows(rows, accumSlotBytes)
	c, distinct := int(rows), int(rows)+1
	if h.direct {
		h.stamps, h.gen = h.stamped.nextColumn(rows)
	} else {
		c = tableCap(want, rows)
		distinct = c / 2
		if c > cap(h.rows) {
			h.rows = make([]int32, c)
			for i := range h.rows {
				h.rows[i] = emptySlot
			}
		}
		h.rows, h.mask = h.rows[:c], int32(c-1)
	}
	if c > cap(h.vals) {
		h.vals = make([]float64, c)
	}
	h.vals = h.vals[:c]
	if distinct > cap(h.occupied) {
		h.occupied = make([]int32, 0, distinct)
	}
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

// probe returns where row r lives in the hash table: the slot holding it, or
// the empty slot it is to take. The multiplier is the 32-bit Fibonacci
// constant. The plus-times loops below inline this; add calls it.
func (h *hashAccum) probe(r int32) int32 {
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

// slot returns the slot of row r and whether the column already holds the
// row. A row it does not hold takes the slot — stamped or written, and
// listed in occupied — and the caller stores its value.
func (h *hashAccum) slot(r int32) (int32, bool) {
	if h.direct {
		if h.stamps[r] == h.gen {
			return r, true
		}
		h.stamps[r] = h.gen
		h.occupied = append(h.occupied, r)
		return r, false
	}
	s := h.probe(r)
	if h.rows[s] == r {
		return s, true
	}
	h.rows[s] = r
	h.occupied = append(h.occupied, s)
	return s, false
}

// add accumulates v into row r with the semiring's Add.
func (h *hashAccum) add(r int32, v float64, addFn func(a, b float64) float64) {
	if s, held := h.slot(r); held {
		h.vals[s] = addFn(h.vals[s], v)
	} else {
		h.vals[s] = v
	}
}

// drainInto appends the accumulated (row, value) pairs to the output slices
// in insertion order (unsorted) and returns the extended slices. A direct
// table's slots are its rows, so occupied is the row list as it stands and
// only the values are gathered; a hash table is read slot by slot and left
// empty behind.
func (h *hashAccum) drainInto(rows []int32, vals []float64) ([]int32, []float64) {
	n, m := len(rows), len(h.occupied)
	rows = slices.Grow(rows, m)[:n+m]
	vals = slices.Grow(vals, m)[:n+m]
	if h.direct {
		copy(rows[n:], h.occupied)
		for i, r := range h.occupied {
			vals[n+i] = h.vals[r]
		}
		return rows, vals
	}
	for i, s := range h.occupied {
		rows[n+i] = h.rows[s]
		vals[n+i] = h.vals[s]
		h.rows[s] = emptySlot
	}
	h.occupied = h.occupied[:0]
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
	return h.direct && len(h.vals) <= walkRowsPerEntry*len(h.occupied)
}

// drainAscendingInto appends a direct table's column in ascending row order
// without sorting it: the occupied rows are marked in a bitmap, and the
// bitmap is walked and left all zero.
func (h *hashAccum) drainAscendingInto(rows []int32, vals []float64) ([]int32, []float64) {
	m, words := len(h.occupied), (len(h.vals)+63)>>6
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

// hashAccumulateColumn feeds one output column's products into acc, in B
// entry order and then A entry order — the accumulation order every kernel
// shares. aSlots holds the A slot of each B entry (Plan.aSlots; -1: A stores
// no such column) and bVals the entries' values, so A's columns are read
// straight through its view, for either format, with no lookup. Under
// plus-times the regime is picked once for the
// column and the insert is written out in the loop, on locals: a call per
// contribution costs more than the contribution.
//
// In the direct regime, whether a contribution meets its row in the table or
// brings a new one is a coin toss on real blocks (35–60 % meet), so the insert
// must compile without a jump that depends on it: the stamp and occupied[n]
// are stored either way, n advances by the 0-or-1 outcome, and the value is
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
func hashAccumulateColumn(acc *hashAccum, a *colView, aSlots []int32, bVals []float64, sr *semiring.Semiring, plusTimes bool) {
	bVals = bVals[:len(aSlots)]
	if !plusTimes {
		for p, k := range aSlots {
			if k < 0 {
				continue
			}
			bv := bVals[p]
			aRows, aVals := a.col(k)
			for q := range aRows {
				acc.add(aRows[q], sr.Mul(aVals[q], bv), sr.Add)
			}
		}
		return
	}
	if acc.direct {
		stamps, gen := acc.stamps, acc.gen
		vals, n, occupied := acc.vals[:len(stamps)], len(acc.occupied), acc.occupied[:cap(acc.occupied)]
		for p, k := range aSlots {
			if k < 0 {
				continue
			}
			bv := bVals[p]
			aRows, aVals := a.col(k)
			aVals = aVals[:len(aRows)]
			for q, r := range aRows {
				v, isNew := aVals[q]*bv, b2i(stamps[r] != gen)
				stamps[r], vals[r], occupied[n] = gen, selectValue(isNew, v, vals[r]+v), r
				n += isNew
			}
		}
		acc.occupied = occupied[:n]
		return
	}
	rows, vals, occupied, mask := acc.rows, acc.vals, acc.occupied, acc.mask
	vals = vals[:len(rows)]
	for p, k := range aSlots {
		if k < 0 {
			continue
		}
		bv := bVals[p]
		aRows, aVals := a.col(k)
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
	if acc.direct {
		stamps, gen := acc.stamps, acc.gen
		vals, n, occupied := acc.vals[:len(stamps)], len(acc.occupied), acc.occupied[:cap(acc.occupied)]
		for _, part := range parts {
			pVals := part.vals[:len(part.rows)]
			for q, r := range part.rows {
				v, isNew := pVals[q], b2i(stamps[r] != gen)
				stamps[r], vals[r], occupied[n] = gen, selectValue(isNew, v, vals[r]+v), r
				n += isNew
			}
		}
		acc.occupied = occupied[:n]
		return
	}
	rows, vals, occupied, mask := acc.rows, acc.vals, acc.occupied, acc.mask
	vals = vals[:len(rows)]
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

// metSlot marks a hash slot whose row walkFirst has emitted: probes pass it
// like a taken slot, and the walk empties it before anything drains.
const metSlot = int32(-2)

// hashAccumulateFirst feeds a column's earlier operand into a table that
// already holds the column's later one (a planned product's, MulMerge),
// as if it had come first: a row the table holds becomes part's value plus
// the table's — Add(part's, table's), the operand order of hashAccumulateParts
// over [part, table's column] — and any other row part's value. part must
// hold each row at most once. The direct plus-times insert takes no jump on
// hit-or-new, as hashAccumulateColumn's does.
func hashAccumulateFirst(acc *hashAccum, part colPart, sr *semiring.Semiring, plusTimes bool) {
	pVals := part.vals[:len(part.rows)]
	if !acc.direct || !plusTimes {
		for q, r := range part.rows {
			if s, held := acc.slot(r); held {
				acc.vals[s] = sr.Add(pVals[q], acc.vals[s])
			} else {
				acc.vals[s] = pVals[q]
			}
		}
		return
	}
	stamps, gen := acc.stamps, acc.gen
	vals, n, occupied := acc.vals[:len(stamps)], len(acc.occupied), acc.occupied[:cap(acc.occupied)]
	for q, r := range part.rows {
		v, isNew := pVals[q], b2i(stamps[r] != gen)
		stamps[r], vals[r], occupied[n] = gen, selectValue(isNew, v, v+vals[r]), r
		n += isNew
	}
	acc.occupied = occupied[:n]
}

// walkFirst appends to the worker's chunk, in part's order, the merge of a
// column's earlier operand part with the later one the table holds, part
// first: a row the table holds comes out as Add(part's value, table's value)
// and leaves the table, any other row as part's value. The table keeps the
// rows part did not meet, in insertion order, for the drain that emits them
// next — together the column hashAccumulateParts over [part, table's column]
// and an unsorted drain would make, without inserting part. part must hold
// each row at most once. In the direct regime under plus-times the walk takes
// no jump on hit-or-new: the sum is picked by selectValue, and a met row's
// stamp drops by the 0-or-1 outcome, out of the column's generation; the
// hash regime marks a met slot metSlot.
func (w *mmWorker) walkFirst(part colPart, sr *semiring.Semiring, plusTimes bool) {
	h, m, n := &w.acc, len(part.rows), len(w.rows)
	w.rows, w.vals = slices.Grow(w.rows, m)[:n+m], slices.Grow(w.vals, m)[:n+m]
	rows, vals, pVals := w.rows[n:], w.vals[n:], part.vals[:m]
	copy(rows, part.rows)
	if h.direct {
		stamps, gen, tVals := h.stamps, h.gen, h.vals[:len(h.stamps)]
		if plusTimes {
			for q, r := range part.rows {
				e, hit := pVals[q], b2i(stamps[r] == gen)
				vals[q] = selectValue(hit, e+tVals[r], e)
				stamps[r] -= int32(hit)
			}
		} else {
			for q, r := range part.rows {
				vals[q] = pVals[q]
				if stamps[r] == gen {
					vals[q] = sr.Add(pVals[q], tVals[r])
					stamps[r]--
				}
			}
		}
		k := 0
		for _, r := range h.occupied {
			h.occupied[k] = r
			k += b2i(stamps[r] == gen)
		}
		h.occupied = h.occupied[:k]
		return
	}
	for q, r := range part.rows {
		s := int32(uint32(r)*2654435769) & h.mask
		for h.rows[s] != r && h.rows[s] != emptySlot {
			s = (s + 1) & h.mask
		}
		vals[q] = pVals[q]
		if h.rows[s] == r {
			vals[q] = sr.Add(pVals[q], h.vals[s])
			h.rows[s] = metSlot
		}
	}
	k := 0
	for _, s := range h.occupied {
		if h.rows[s] == metSlot {
			h.rows[s] = emptySlot
			continue
		}
		h.occupied[k] = s
		k++
	}
	h.occupied = h.occupied[:k]
}
