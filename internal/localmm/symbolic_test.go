package localmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

func TestFlopsSmall(t *testing.T) {
	// A has columns with 2 and 1 nonzeros; B selects them.
	a := spmat.Dense(3, 2, []float64{1, 0, 1, 1, 0, 0})
	b := spmat.Dense(2, 2, []float64{1, 1, 1, 0})
	// Column 0 of B uses A cols {0,1}: 2+1 = 3 flops; column 1 uses {0}: 2.
	if got := Flops(a, b); got != 5 {
		t.Errorf("Flops=%d, want 5", got)
	}
	cf := ColFlops(a, b)
	if cf[0] != 3 || cf[1] != 2 {
		t.Errorf("ColFlops=%v, want [3 2]", cf)
	}
}

func TestSymbolicMatchesActualNNZ(t *testing.T) {
	a := randomMat(t, 40, 40, 250, 30)
	b := randomMat(t, 40, 40, 250, 31)
	c := Multiply(a, b, semiring.PlusTimes())
	// Structural nnz: the hash kernel stores every structurally reachable
	// entry (exact zeros from cancellation are still stored).
	if got, want := SymbolicSpGEMM(a, b), c.NNZ(); got != want {
		t.Errorf("SymbolicSpGEMM=%d, actual nnz=%d", got, want)
	}
	// Column by column, under both regimes of the row set.
	tall := withRows(a, directStampRows+1)
	for j := int32(0); j < c.Cols; j++ {
		bj := spmat.ColRange(b, j, j+1)
		if got := SymbolicSpGEMM(a, bj); got != c.ColNNZ(j) {
			t.Errorf("column %d: symbolic %d actual %d", j, got, c.ColNNZ(j))
		}
		if got := SymbolicSpGEMM(tall, bj); got != c.ColNNZ(j) {
			t.Errorf("column %d: hash-set symbolic %d actual %d", j, got, c.ColNNZ(j))
		}
	}
}

func TestFlopsVsSymbolicProperty(t *testing.T) {
	// flops ≥ nnz(C) always (each output nonzero needs ≥1 multiplication).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(rng.Intn(30) + 1)
		a := randomMat(t, n, n, rng.Intn(120), seed+1)
		b := randomMat(t, n, n, rng.Intn(120), seed+2)
		return Flops(a, b) >= SymbolicSpGEMM(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSymbolicIdentityProduct(t *testing.T) {
	m := randomMat(t, 30, 30, 100, 33)
	id := spmat.Identity(30)
	if got := SymbolicSpGEMM(m, id); got != m.NNZ() {
		t.Errorf("nnz(M·I) symbolic = %d, want %d", got, m.NNZ())
	}
	if got := Flops(m, id); got != m.NNZ() {
		t.Errorf("flops(M·I) = %d, want %d", got, m.NNZ())
	}
}

// TestRowSetSized: a set sized by tableCap holds its promised distinct rows
// at load factor <= 0.5, duplicate inserts are idempotent, and overfilling
// panics instead of letting a later probe spin on a full table.
func TestRowSetSized(t *testing.T) {
	var s rowSet
	s.sizeFor(1000, math.MaxInt32)
	for r := int32(0); r < 1000; r++ {
		s.insert(r)
		s.insert(r)
	}
	if len(s.occupied) != 1000 {
		t.Errorf("set has %d elements, want 1000", len(s.occupied))
	}
	if 2*len(s.occupied) > len(s.rows) {
		t.Errorf("load factor above 0.5: %d rows in %d slots", len(s.occupied), len(s.rows))
	}
	var small rowSet
	small.sizeFor(2, math.MaxInt32)
	defer func() {
		if recover() == nil {
			t.Error("overfilled row set did not panic")
		}
	}()
	for r := int32(0); r < 100; r++ {
		small.insert(r)
	}
}

func TestHashAccumSized(t *testing.T) {
	var h hashAccum
	h.sizeFor(100, math.MaxInt32)
	for r := int32(0); r < 500; r++ {
		addPlus(&h, r%100, 1) // 100 distinct keys, 5 inserts each
	}
	if len(h.occupied) != 100 {
		t.Fatalf("accumulator has %d keys, want 100", len(h.occupied))
	}
	rows, vals := h.drainInto(nil, nil)
	for i := range rows {
		if vals[i] != 5 {
			t.Errorf("row %d accumulated %v, want 5", rows[i], vals[i])
		}
	}
	var small hashAccum
	small.sizeFor(2, math.MaxInt32)
	defer func() {
		if recover() == nil {
			t.Error("overfilled accumulator did not panic")
		}
	}()
	for r := int32(0); r < 100; r++ {
		small.add(r, 1, func(a, b float64) float64 { return a + b })
	}
}

// TestTableCapClampsAndFailsLoudly is the regression test for the sizing
// loop that doubled an int32 until it covered 2*want: from want = 2^30 on it
// overflowed to a negative, then to 0, and never terminated. A column cannot
// hold more distinct rows than the operand has, so the request is clamped by
// the row count; one that still exceeds the slot index range panics at once.
func TestTableCapClampsAndFailsLoudly(t *testing.T) {
	for _, c := range []struct {
		want int64
		rows int32
		cap  int
	}{
		{0, 10, 8}, {4, 10, 8}, {5, 10, 16}, {8, 100, 16}, {9, 100, 32},
		{1 << 30, 1000, 2048}, // the overflow case, clamped by rows
		{1 << 40, 1024, 2048}, // flops far beyond the row count
		{math.MaxInt64, 1 << 20, 1 << 21},
		{1 << 29, math.MaxInt32, 1 << 30}, // the largest table there is
	} {
		if got := tableCap(c.want, c.rows); got != c.cap {
			t.Errorf("tableCap(%d, %d) = %d, want %d", c.want, c.rows, got, c.cap)
		}
	}
	// The clamped request builds and works.
	var acc hashAccum
	acc.sizeFor(1<<30, 1000)
	for r := int32(0); r < 1000; r++ {
		addPlus(&acc, r, 1)
	}
	if len(acc.occupied) != 1000 {
		t.Errorf("clamped accumulator holds %d rows, want 1000", len(acc.occupied))
	}
	defer func() {
		if recover() == nil {
			t.Error("a column of 2^30 distinct rows did not panic")
		}
	}()
	tableCap(1<<30, math.MaxInt32)
}

// TestHashAccumReset: a re-sized accumulator is empty, and one sized for a
// smaller column than it was made for probes only that prefix of its
// table — a short column after a long one stays cache-sized — while holding
// the same contents it would in a table made at that size.
func TestHashAccumReset(t *testing.T) {
	var h hashAccum
	h.sizeFor(1000, math.MaxInt32)
	for r := int32(0); r < 1000; r++ {
		addPlus(&h, r*7919, 1)
	}
	h.sizeFor(10, math.MaxInt32)
	if len(h.occupied) != 0 {
		t.Fatal("reset did not clear")
	}
	var small hashAccum
	small.sizeFor(10, math.MaxInt32)
	for r := int32(0); r < 10; r++ {
		addPlus(&h, r*7919, 5)
		addPlus(&small, r*7919, 5)
	}
	for i, s := range h.occupied {
		if int(s) >= len(small.rows) {
			t.Errorf("slot %d lies outside the %d-slot prefix the column was sized for", s, len(small.rows))
		}
		if s != small.occupied[i] {
			t.Errorf("entry %d sits in slot %d, a fresh table of the same size uses %d", i, s, small.occupied[i])
		}
	}
	rows, vals := h.drainInto(nil, nil)
	if len(rows) != 10 || vals[0] != 5 {
		t.Errorf("stale state after reset: %v %v", rows, vals)
	}
}

// TestSymbolicStampMatchesHashFallback: the same entries under a declared
// row count on either side of the stamp table's bound take the two regimes
// of the row set, and both must count what a map per column counts.
func TestSymbolicStampMatchesHashFallback(t *testing.T) {
	a := randomMat(t, 60, 60, 400, 34)
	b := randomMat(t, 60, 60, 350, 35)
	var want int64
	for j := int32(0); j < b.Cols; j++ {
		seen := map[int32]bool{}
		bRows, _ := b.Column(j)
		for _, i := range bRows {
			aRows, _ := a.Column(i)
			for _, r := range aRows {
				seen[r] = true
			}
		}
		want += int64(len(seen))
	}
	for _, rows := range []int32{a.Rows, directStampRows, directStampRows + 1, math.MaxInt32} {
		if got := SymbolicSpGEMM(withRows(a, rows), b); got != want {
			t.Errorf("A declared %d rows tall: symbolic count %d, a map per column counts %d", rows, got, want)
		}
	}
}

func TestSymbolicEmptyColumns(t *testing.T) {
	a := randomMat(t, 20, 20, 50, 36)
	b := spmat.New(20, 7)
	if got := SymbolicSpGEMM(a, b); got != 0 {
		t.Errorf("empty B: nnz=%d", got)
	}
}

func BenchmarkSymbolicStamp(b *testing.B) {
	a := randomMat(b, 2048, 2048, 40000, 37)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SymbolicSpGEMM(a, a)
	}
}

func BenchmarkSymbolicHashSet(b *testing.B) {
	a := randomMat(b, 2048, 2048, 40000, 37)
	tall := withRows(a, directStampRows+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SymbolicSpGEMM(tall, a)
	}
}

// TestParallelSymbolicMatchesSerial: the threaded LOCALSYMBOLIC must count
// exactly what the serial routine counts for any thread count, including
// thread counts exceeding the column count.
func TestParallelSymbolicMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		rows, cols int32
		nnz        int
		seed       int64
	}{
		{60, 60, 400, 51},
		{200, 120, 2500, 52},
		{500, 17, 3000, 53}, // few, heavy columns: exercises flop balancing
		{40, 1, 80, 54},     // single column: clamps to serial
	} {
		a := randomMat(t, tc.rows, tc.rows, tc.nnz, tc.seed)
		b := randomMat(t, tc.rows, tc.cols, tc.nnz, tc.seed+100)
		want := SymbolicSpGEMM(a, b)
		for _, threads := range []int{1, 2, 3, 4, 8, 64} {
			if got := SymbolicMat(a, b, threads); got != want {
				t.Errorf("%dx%d nnz=%d threads=%d: got %d, want %d",
					tc.rows, tc.cols, tc.nnz, threads, got, want)
			}
		}
	}
}

// TestParallelSymbolicEmpty covers the empty-operand edge the stage loop can
// produce on small grids.
func TestParallelSymbolicEmpty(t *testing.T) {
	a := randomMat(t, 20, 20, 50, 55)
	if got := SymbolicMat(a, spmat.New(20, 7), 4); got != 0 {
		t.Errorf("empty B: nnz=%d", got)
	}
}

func BenchmarkSymbolicParallel(b *testing.B) {
	a := randomMat(b, 2048, 2048, 40000, 37)
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SymbolicMat(a, a, threads)
			}
		})
	}
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
