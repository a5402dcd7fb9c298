package localmm

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// insertOracle is the accumulator the plus-times loops must be
// indistinguishable from: a map, and the branch the direct regime's loops no
// longer take — a row already present adds, a new row stores the contribution
// as it came and joins the order. One sum it cannot pin: of two NaNs added, the hardware
// keeps the one in a position the compiler chose (x86: the first operand), so
// a row that ever added a NaN to a NaN is held to being NaN, not to a payload.
type insertOracle struct {
	vals   map[int32]float64
	order  []int32
	anyNaN map[int32]bool
}

func newInsertOracle() *insertOracle {
	return &insertOracle{vals: map[int32]float64{}, anyNaN: map[int32]bool{}}
}

func (o *insertOracle) add(r int32, v float64) {
	if old, ok := o.vals[r]; ok {
		o.vals[r] = old + v
		o.anyNaN[r] = o.anyNaN[r] || math.IsNaN(old) && math.IsNaN(v)
		return
	}
	o.vals[r] = v
	o.order = append(o.order, r)
}

// checkColumn runs one column — parts of contributions, in order — on w's
// scratch with the operand declared rows tall, three ways: as a merge of the
// parts (hashAccumulateParts), as the multiply whose A columns are the parts
// and whose B column scales every one of them by 1 (hashAccumulateColumn; the
// product v·1 is exact, though it quiets a signalling NaN, as it does in the
// oracle), and as that multiply's symbolic count. Entry order is compared by
// position and values by bit pattern.
func checkColumn(tb testing.TB, label string, w *mmWorker, rows int32, parts []colPart) {
	tb.Helper()
	sr := semiring.PlusTimes()
	a := &spmat.CSC{Rows: rows, Cols: int32(len(parts)), ColPtr: []int64{0}}
	bRows, bVals := make([]int32, len(parts)), make([]float64, len(parts))
	merged, multiplied := newInsertOracle(), newInsertOracle()
	for i, part := range parts {
		a.RowIdx, a.Val = append(a.RowIdx, part.rows...), append(a.Val, part.vals...)
		a.ColPtr = append(a.ColPtr, int64(len(a.RowIdx)))
		bRows[i], bVals[i] = int32(i), 1
		for q, r := range part.rows {
			merged.add(r, part.vals[q])
			multiplied.add(r, part.vals[q]*bVals[i])
		}
	}
	want := int64(len(a.RowIdx))
	same := func(kind string, o *insertOracle) {
		tb.Helper()
		if !slices.Equal(w.rows, o.order) {
			tb.Fatalf("%s/%s: rows drained in order %v, want %v", label, kind, w.rows, o.order)
		}
		for i, r := range w.rows {
			if got, want := math.Float64bits(w.vals[i]), math.Float64bits(o.vals[r]); got != want && !(o.anyNaN[r] && math.IsNaN(w.vals[i])) {
				tb.Fatalf("%s/%s: row %d holds %#016x, want %#016x", label, kind, r, got, want)
			}
		}
	}
	w.rows, w.vals = w.rows[:0], w.vals[:0]
	w.acc.sizeFor(want, rows)
	hashAccumulateParts(&w.acc, parts, sr, true)
	w.drain(false)
	same("merge", merged)

	av := viewOf(a)
	w.rows, w.vals = w.rows[:0], w.vals[:0]
	w.acc.sizeFor(want, rows)
	hashAccumulateColumn(&w.acc, &av, bRows, bVals, sr, true)
	w.drain(false)
	same("multiply", multiplied)

	if n := w.set.countColumn(&av, bRows, want, rows); n != int64(len(merged.order)) {
		tb.Fatalf("%s/count: %d distinct rows, want %d", label, n, len(merged.order))
	}
}

// TestSelectInsertBitIdentical holds the direct regime's jump-free insert to
// the branch it replaced on every value where a select on anything but the
// bit pattern would show: signed zeros, infinities and their difference, NaN
// payloads (but for which of two NaNs added survives, see insertOracle),
// subnormals, and slots whose previous column left something behind. The
// columns run back to back on one worker, declared 16 rows tall (both tables
// direct), and — the hash regime, which still branches, held to the same
// oracle — past the accumulator's bound (hash table, stamps) and past the
// stamps' (hash table, hash set).
func TestSelectInsertBitIdentical(t *testing.T) {
	bits := math.Float64frombits
	var (
		negZero   = math.Copysign(0, -1)
		inf       = math.Inf(1)
		quietNaN  = bits(0x7ff8_0000_dead_beef)
		signalNaN = bits(0x7ff0_0000_0000_0abc)
		negNaN    = bits(0xfff8_0000_0000_0001)
		subnormal = bits(1)
	)
	part := func(pairs ...float64) colPart { // row, value, row, value, …
		var p colPart
		for i := 0; i < len(pairs); i += 2 {
			p.rows, p.vals = append(p.rows, int32(pairs[i])), append(p.vals, pairs[i+1])
		}
		return p
	}
	all := func(v float64) colPart {
		return part(3, v, 0, v, 15, v, 7, v, 12, v, 1, v, 9, v, 6, v, 14, v, 2, v, 11, v, 5, v, 8, v, 4, v, 13, v, 10, v)
	}
	columns := []struct {
		name  string
		parts []colPart
	}{
		{"negative zero first", []colPart{part(2, negZero, 5, negZero), part(5, negZero)}},
		{"negative zero later", []colPart{part(2, 0, 5, 1.5), part(2, negZero, 5, negZero), part(4, 1, 4, -1, 4, negZero)}},
		{"infinities", []colPart{part(1, inf, 2, -inf, 3, inf), part(1, inf, 2, 1e308, 3, -inf)}},
		{"NaN payloads", []colPart{part(0, quietNaN, 1, signalNaN, 2, negNaN, 3, 1), part(0, 1, 1, 1, 2, quietNaN, 3, signalNaN), part(6, signalNaN)}},
		{"fresh rows over the NaNs", []colPart{part(6, 1, 3, negZero, 0, 2, 1, subnormal, 2, -2)}},
		{"subnormals", []colPart{part(4, subnormal, 5, -subnormal), part(4, subnormal, 5, subnormal, 4, bits(0x000f_ffff_ffff_ffff))}},
		{"duplicates inside one operand", []colPart{part(7, 1, 7, 2, 7, negZero, 0, 0.1, 0, 0.2, 7, 1e-300)}},
		// Four contributions take an 8-slot hash table, where rows 8 and 0
		// share slot 0 and 9 and 1 slot 1: the probe must walk past a row that
		// is not its own, whatever bits the two have in common.
		{"rows that collide", []colPart{part(8, 1, 0, 2), part(8, 3, 0, negZero)}},
		{"rows that collide, displaced", []colPart{part(9, 1, 8, 2, 0, 3), part(1, 4)}},
		{"no contributions", nil},
		{"empty operands", []colPart{{}, {}, part(3, 1), {}}},
		{"every row, then more", []colPart{all(0.1), all(0.2), part(3, quietNaN, 0, inf), all(negZero)}},
		{"every row again", []colPart{all(1)}},
	}
	for _, rows := range []int32{16, directAccumRows + 1, directStampRows + 1} {
		var w mmWorker
		for _, c := range columns {
			checkColumn(t, c.name, &w, rows, c.parts)
		}
	}
	checkColumn(t, "zero-row operand", new(mmWorker), 0, []colPart{{}})
}

// TestOccupiedCapacityAcrossRegimes: the direct insert writes occupied[n]
// before it knows the row is new, so occupied needs rows + 1 entries of room
// even when the arrays were sized — and occupied given 256 — by a 512-slot
// hash column and the 300-row direct operand that follows fits them without
// a reallocation. Both orders, on the multiply, the merge and the count,
// against the map oracle; the direct column fills all 300 rows and then
// receives 350 contributions more.
func TestOccupiedCapacityAcrossRegimes(t *testing.T) {
	a := spmat.HCat([]*spmat.CSC{uniformMat(t, 300, 1, 300, 321), scrambleColumns(uniformMat(t, 300, 7, 50, 322), 1)})
	column := func(from, to int) []colPart {
		var parts []colPart
		for j := from; j < to; j++ {
			r, v := a.Column(int32(j))
			parts = append(parts, colPart{rows: r, vals: v})
		}
		return parts
	}
	hashed, direct := column(1, 5), column(0, 8) // 200 and 650 contributions
	if c := tableCap(200, directAccumRows+1); c != 512 || c/2 > 300 {
		t.Fatalf("a 200-contribution column takes a %d-slot table, want 512", c)
	}
	for _, directFirst := range []bool{false, true} {
		var used mmWorker
		for round := 0; round < 2; round++ {
			for step := 0; step < 2; step++ {
				if (step == 0) == directFirst {
					checkColumn(t, "direct", &used, a.Rows, direct)
				} else {
					checkColumn(t, "hashed", &used, directStampRows+1, hashed)
				}
			}
		}
	}
}

// FuzzAccumulatorInsert feeds arbitrary (row, value bits) sequences — ten
// bytes a contribution, an operand boundary wherever the row's top bit is
// set — through both tables of both regimes and holds every column to the
// map oracle, bit for bit. Each input gets a worker of its own, so a crasher
// replays alone; the three declared heights run twice on it, so every regime
// also meets the tables every regime left behind.
func FuzzAccumulatorInsert(f *testing.F) {
	contribution := func(row uint16, v float64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint16(nil, row), math.Float64bits(v))
	}
	f.Add([]byte{})
	f.Add(slices.Concat(contribution(5, math.Copysign(0, -1)), contribution(5, 0), contribution(0x8005, math.Inf(1)), contribution(5, math.Inf(-1))))
	f.Add(slices.Concat(contribution(63, math.Float64frombits(0x7ff0_0000_0000_0001)), contribution(0x8000|63, 1), contribution(0, math.NaN())))
	f.Fuzz(func(t *testing.T, data []byte) {
		const rows = 64
		var w mmWorker
		parts := []colPart{{}}
		for ; len(data) >= 10; data = data[10:] {
			row := binary.LittleEndian.Uint16(data)
			if row&0x8000 != 0 {
				parts = append(parts, colPart{})
			}
			p := &parts[len(parts)-1]
			p.rows = append(p.rows, int32(row%rows))
			p.vals = append(p.vals, math.Float64frombits(binary.LittleEndian.Uint64(data[2:])))
		}
		for _, declared := range []int32{rows, directAccumRows + 1, directStampRows + 1, rows, directAccumRows + 1, directStampRows + 1} {
			checkColumn(t, "fuzz", &w, declared, parts)
		}
	})
}
