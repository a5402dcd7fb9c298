package localmm

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// The tallest operands that still take the direct regime: the accumulator's
// table and the symbolic pass's stamp table. One more row and the hash
// regime runs, so a test picks its regime by the row count it declares — the
// way the kernels pick it — and needs no switch.
const (
	directAccumRows = int32(directTableBytes / accumSlotBytes)
	directStampRows = int32(directTableBytes / stampBytes)
)

// withRows returns m's entries under a declared row count (the arrays are
// shared). Declaring more rows than the entries use changes nothing about a
// product or a merge except the regime its accumulators run in.
func withRows(m *spmat.CSC, rows int32) *spmat.CSC {
	u := *m
	u.Rows = rows
	return &u
}

// addPlus accumulates one contribution through the plus-times loop the
// kernels run (hashAccumulateParts), for the accumulator's unit tests.
func addPlus(h *hashAccum, r int32, v float64) {
	hashAccumulateParts(h, []colPart{{rows: []int32{r}, vals: []float64{v}}}, semiring.PlusTimes(), true)
}

// TestRegimesAgree is the cross-regime differential: the same entries under
// a declared row count just below and just above the direct table's bound
// run the direct and the hash regime, and every entry point that
// accumulates — the multiply (unsorted and sorted), the merge (both
// sortOutput values, 2 and 4 operands) and the symbolic count — must store
// the same columns, entry for entry in the same order (sameEntries: exact
// values, stored order), under both, for CSC and DCSC operands,
// one and two workers, plus-times and a semiring that takes the general
// path. Operands are heavy enough that two workers really run
// (workPerExtraWorker), and unsorted, so insertion order is not row order.
func TestRegimesAgree(t *testing.T) {
	a := scrambleColumns(uniformMat(t, 256, 256, 16, 301), 1)
	b := scrambleColumns(uniformMat(t, 256, 256, 16, 302), 2)
	parts := make([]*spmat.CSC, 4)
	for i := range parts {
		parts[i] = scrambleColumns(uniformMat(t, 256, 512, 64, 303+int64(i)), int64(3+i))
	}
	for _, sr := range []*semiring.Semiring{semiring.PlusTimes(), semiring.MinPlus()} {
		for _, dcsc := range []bool{false, true} {
			for _, threads := range []int{1, 2} {
				label := fmt.Sprintf("%s/dcsc=%v/t=%d", sr.Name, dcsc, threads)
				lo, hi := asFormat(withRows(a, directAccumRows), dcsc), asFormat(withRows(a, directAccumRows+1), dcsc)
				bm := asFormat(b, dcsc)
				if pl := PlanMul(lo, bm); clampThreads(2, pl.bv.n, pl.Flops) != 2 {
					t.Fatalf("multiply of %d flops is below the worker floor", pl.Flops)
				}
				for _, k := range []Kernel{KernelHashUnsorted, KernelHashSorted} {
					sameEntries(t, fmt.Sprintf("mul/%v/%s", k, label), MulMat(k, lo, bm, sr, threads), MulMat(k, hi, bm, sr, threads))
				}
				for _, n := range []int{2, 4} {
					direct, hashed := make([]spmat.Matrix, n), make([]spmat.Matrix, n)
					for i := range direct {
						direct[i] = asFormat(withRows(parts[i], directAccumRows), dcsc)
						hashed[i] = asFormat(withRows(parts[i], directAccumRows+1), dcsc)
					}
					for _, sorted := range []bool{false, true} {
						sameEntries(t, fmt.Sprintf("merge/%d/sorted=%v/%s", n, sorted, label),
							MergeMat(MergerHash, direct, sr, sorted, threads), MergeMat(MergerHash, hashed, sr, sorted, threads))
					}
				}
				sLo, sHi := asFormat(withRows(a, directStampRows), dcsc), asFormat(withRows(a, directStampRows+1), dcsc)
				if got, want := SymbolicMat(sLo, bm, threads), SymbolicMat(sHi, bm, threads); got != want {
					t.Fatalf("symbolic/%s: stamps count %d, the hash set %d", label, got, want)
				}
			}
		}
	}
}

// TestSortedDrainWalksOrSorts: a sorted drain of a direct table walks its
// bitmap when the table is small for the column and sorts otherwise; both
// must emit ascending rows with their values, append to what the chunk
// already holds, and leave the bitmap clear for the next column.
func TestSortedDrainWalksOrSorts(t *testing.T) {
	var w mmWorker
	for _, tc := range []struct {
		name   string
		table  int32
		rows   []int32
		walked bool
	}{
		{"dense", 64, []int32{9, 3, 7, 4, 8, 5, 6}, true},
		{"one-row", walkRowsPerEntry, []int32{200}, true},
		{"one-row-too-tall", walkRowsPerEntry + 1, []int32{200}, false},
		{"word-edges", 4 * walkRowsPerEntry, []int32{1023, 64, 0, 63, 128, 127}, true},
		{"sparse", directAccumRows, []int32{0, 32767, 16000}, false},
		{"dense-again", 64, []int32{63, 0, 1}, true},
	} {
		w.rows, w.vals = append(w.rows[:0], -7), append(w.vals[:0], -7) // an earlier column of the chunk
		w.acc.sizeFor(int64(len(tc.rows)), tc.table)
		for _, r := range tc.rows {
			addPlus(&w.acc, r, float64(r))
			addPlus(&w.acc, r, 1)
		}
		if walked := w.acc.walks(); walked != tc.walked {
			t.Errorf("%s: walked=%v, want %v", tc.name, walked, tc.walked)
		}
		w.drain(true)
		want := slices.Clone(tc.rows)
		slices.Sort(want)
		if !slices.Equal(w.rows[1:], want) || w.rows[0] != -7 || w.vals[0] != -7 {
			t.Errorf("%s: drained rows %v, want the chunk's first entry then %v", tc.name, w.rows, want)
		}
		for i, r := range w.rows[1:] {
			if w.vals[1+i] != float64(r)+1 {
				t.Errorf("%s: row %d drained with value %v, want %v", tc.name, r, w.vals[1+i], float64(r)+1)
			}
		}
	}
}

// TestWorkerAlternatesRegimes is the reuse workout: one worker's scratch runs
// direct → hash → direct columns back to back, a long column after a short
// one in each regime, through the multiply's and the merge's accumulation
// (sorted and unsorted drain) and the symbolic count, and every column must
// come out as it does from scratch nobody has used — no slot, stamp or
// occupied entry survives a regime switch.
func TestWorkerAlternatesRegimes(t *testing.T) {
	sr := semiring.PlusTimes()
	a := scrambleColumns(uniformMat(t, 2000, 64, 30, 311), 1)
	b := uniformMat(t, 64, 2, 1, 312)
	b = spmat.HCat([]*spmat.CSC{b, uniformMat(t, 64, 2, 40, 313)}) // two short columns, two long
	flops := ColFlops(a, b)
	// columnOn computes output column j on w's scratch three ways — as a
	// multiply, as a merge of the A columns the multiply would scale, as a
	// symbolic count — with A declared rows tall.
	columnOn := func(w *mmWorker, j, rows int32, sorted bool) ([]int32, []float64, int64) {
		av := viewOf(withRows(a, rows))
		bRows, bVals := b.Column(j)
		w.rows, w.vals, w.parts = w.rows[:0], w.vals[:0], w.parts[:0]
		w.acc.sizeFor(flops[j], rows)
		hashAccumulateColumn(&w.acc, &av, bRows, bVals, sr, true)
		w.drain(sorted)
		for _, i := range bRows {
			r, v := a.Column(i)
			w.parts = append(w.parts, colPart{rows: r, vals: v})
		}
		w.acc.sizeFor(flops[j], rows)
		hashAccumulateParts(&w.acc, w.parts, sr, true)
		w.drain(sorted)
		return slices.Clone(w.rows), slices.Clone(w.vals), w.set.countColumn(&av, bRows, flops[j], rows)
	}
	var used mmWorker
	for round := 0; round < 2; round++ {
		for _, rows := range []int32{directAccumRows, math.MaxInt32, a.Rows, directStampRows, directStampRows + 1} {
			for j := int32(0); j < b.Cols; j++ {
				for _, sorted := range []bool{false, true} {
					gotR, gotV, gotN := columnOn(&used, j, rows, sorted)
					wantR, wantV, wantN := columnOn(new(mmWorker), j, rows, sorted)
					if !slices.Equal(gotR, wantR) || !slices.Equal(gotV, wantV) || gotN != wantN {
						t.Fatalf("round %d, %d rows declared, column %d (%d flops), sorted=%v: a used worker's column differs from a fresh worker's",
							round, rows, j, flops[j], sorted)
					}
				}
			}
		}
	}
}

// TestStampGenerationWraps: the stamp table is cleared when the generation
// counter wraps, so a stamp left by generation g long ago is not mistaken
// for membership in the column that takes g again.
func TestStampGenerationWraps(t *testing.T) {
	var s rowSet
	stamps, gen := s.nextColumn(8)
	stamps[3] = gen // row 3 belongs to generation 1
	s.gen = math.MaxInt32
	stamps, gen = s.nextColumn(8)
	if gen != 1 || stamps[3] == gen {
		t.Errorf("after the wrap generation %d finds row 3 stamped %d", gen, stamps[3])
	}
}

// TestDirectTableRejectsRowOutOfRange: a direct table does not insert a row
// its operand cannot have; it fails on the index, where the hash regime
// would have stored it silently.
func TestDirectTableRejectsRowOutOfRange(t *testing.T) {
	var h hashAccum
	h.sizeFor(4, 1000) // the arrays are longer than the next operand is tall
	h.sizeFor(4, 100)
	var s rowSet
	s.nextColumn(1000)
	for name, insert := range map[string]func(){
		"accumulator": func() { addPlus(&h, 100, 1) },
		"general add": func() { h.add(100, 1, semiring.MinPlus().Add) },
		"stamps":      func() { stamps, gen := s.nextColumn(100); stamps[100] = gen },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: row 100 of a 100-row operand was accepted", name)
				}
			}()
			insert()
		}()
	}
}

// TestSymbolicAllocatesNothingByRowCount is the regression test for the
// rows-sized stamp array SymbolicSpGEMM made on every call (64 MB at 2²⁴
// rows, per rank, per stage): the symbolic count of an empty product whose A
// is 2²⁴ rows tall allocates what its one output column needs, not what its
// rows would.
func TestSymbolicAllocatesNothingByRowCount(t *testing.T) {
	a, b := spmat.New(1<<24, 1), spmat.New(1, 1)
	SymbolicSpGEMM(a, b) // the free list's first worker is not the call's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if n := SymbolicSpGEMM(a, b); n != 0 {
		t.Fatalf("empty product counted %d nonzeros", n)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("symbolic count of an empty 2^24-row product allocates %d bytes, want under 64 KiB", got)
	}
}
