package localmm

import (
	"math/rand"
	"testing"

	"repro/internal/spmat"
)

// randomDensePanel builds a deterministic dense panel with small-integer
// values (exact arithmetic, so every summation order is bit-identical).
func randomDensePanel(rows, cols int32, seed int64) *spmat.DenseMat {
	rng := rand.New(rand.NewSource(seed))
	d := spmat.NewDense(rows, cols)
	for i := range d.Val {
		d.Val[i] = float64(rng.Intn(9) + 1)
	}
	return d
}

// spmmBruteForce is an independent O(rows·inner·cols) reference.
func spmmBruteForce(a *spmat.CSC, b *spmat.DenseMat) *spmat.DenseMat {
	da := spmat.DenseFromCSC(a)
	c := spmat.NewDense(a.Rows, b.Cols)
	for i := int32(0); i < a.Rows; i++ {
		for k := int32(0); k < a.Cols; k++ {
			av := da.RowSlice(i)[k]
			if av == 0 {
				continue
			}
			for j := int32(0); j < b.Cols; j++ {
				c.RowSlice(i)[j] += av * b.RowSlice(k)[j]
			}
		}
	}
	return c
}

// TestSpMMDifferential: SpMMInto must agree bit-for-bit with both the serial
// reference and a brute-force dense product, across thread counts, storage
// formats of A, and panel widths (including widths below the thread count).
func TestSpMMDifferential(t *testing.T) {
	shapes := []struct {
		rows, cols, d int32
		nnz           int
	}{
		{40, 30, 8, 200},
		{64, 64, 1, 100},
		{31, 57, 17, 400},
		{100, 10, 3, 50},
		{16, 300, 16, 90}, // hypersparse: most A columns empty
	}
	for si, sh := range shapes {
		a := randomMat(t, sh.rows, sh.cols, sh.nnz, int64(100+si))
		b := randomDensePanel(sh.cols, sh.d, int64(200+si))
		want := spmmBruteForce(a, b)
		ref := SpMMSerial(a, b)
		if !spmat.DenseEqual(want, ref) {
			t.Fatalf("shape %d: SpMMSerial differs from brute force", si)
		}
		for _, aop := range []spmat.Matrix{a, a.ToDCSC()} {
			if got := SpMMSerial(aop, b); !spmat.DenseEqual(ref, got) {
				t.Fatalf("shape %d: SpMMSerial over %v differs", si, aop.Format())
			}
			for _, threads := range []int{1, 2, 3, 8, 64} {
				got := spmat.NewDense(sh.rows, sh.d)
				SpMMInto(got, aop, b, threads)
				if !spmat.DenseEqual(ref, got) {
					t.Fatalf("shape %d: SpMMInto(%v, threads=%d) differs from serial reference",
						si, aop.Format(), threads)
				}
			}
		}
	}
}

// TestSpMMInto: accumulation must add onto existing contents, so folding two
// half-products equals the full product.
func TestSpMMInto(t *testing.T) {
	a := randomMat(t, 30, 40, 300, 7)
	b := randomDensePanel(40, 6, 8)
	want := SpMMSerial(a, b)

	left := spmat.ColRange(a, 0, 20)   // columns [0,20) of A
	right := spmat.ColRange(a, 20, 40) // columns [20,40)
	c := spmat.NewDense(30, 6)
	SpMMInto(c, left, spmat.DenseRowView(b, 0, 20), 4)
	SpMMInto(c, right, spmat.DenseRowView(b, 20, 40), 4)
	if !spmat.DenseEqual(want, c) {
		t.Fatal("column-split accumulation differs from the full product")
	}

	if got := SpMMFlops(a, 6); got != a.NNZ()*6 {
		t.Fatalf("SpMMFlops = %d, want %d", got, a.NNZ()*6)
	}
}
