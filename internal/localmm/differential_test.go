package localmm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// naiveMultiply is a triple-loop reference SpGEMM over an arbitrary semiring,
// sharing no code with the kernels under test: for every output column it
// walks B's stored entries and A's stored columns, combining structurally
// stored products only (the semiring's Zero is never materialized).
func naiveMultiply(a, b *spmat.CSC, sr *semiring.Semiring) *spmat.CSC {
	if a.Cols != b.Rows {
		panic("naiveMultiply: shape mismatch")
	}
	present := make([]bool, a.Rows)
	val := make([]float64, a.Rows)
	c := &spmat.CSC{
		Rows:       a.Rows,
		Cols:       b.Cols,
		ColPtr:     make([]int64, b.Cols+1),
		SortedCols: true,
	}
	for j := int32(0); j < b.Cols; j++ {
		bRows, bVals := b.Column(j)
		for p := range bRows {
			k := bRows[p]
			aRows, aVals := a.Column(k)
			for q := range aRows {
				i := aRows[q]
				prod := sr.Mul(aVals[q], bVals[p])
				if !present[i] {
					present[i] = true
					val[i] = prod
				} else {
					val[i] = sr.Add(val[i], prod)
				}
			}
		}
		for i := int32(0); i < a.Rows; i++ { // ascending: sorted output
			if present[i] {
				c.RowIdx = append(c.RowIdx, i)
				c.Val = append(c.Val, val[i])
				present[i] = false
			}
		}
		c.ColPtr[j+1] = int64(len(c.RowIdx))
	}
	return c
}

// diffShape is one operand-pair configuration of the differential table.
type diffShape struct {
	name              string
	rows, inner, cols int32
	nnzA, nnzB        int
	seed              int64
}

// differentialShapes covers the structural edge cases: empty matrices, empty
// columns (nnz far below the column count), non-square operands, single
// columns (below the parallel threshold), and a dense-ish block.
var differentialShapes = []diffShape{
	{"square", 30, 30, 30, 150, 150, 1},
	{"nonsquare-wide", 20, 35, 50, 140, 160, 2},
	{"nonsquare-tall", 60, 12, 9, 90, 40, 3},
	{"empty-a", 15, 10, 12, 0, 50, 4},
	{"empty-b", 15, 10, 12, 50, 0, 5},
	{"both-empty", 8, 6, 7, 0, 0, 6},
	{"mostly-empty-cols", 40, 40, 40, 12, 12, 7},
	{"single-column", 25, 25, 1, 80, 10, 8},
	{"single-row-inner", 20, 1, 20, 10, 10, 9},
	{"densish", 24, 24, 24, 500, 500, 10},
}

// TestKernelsDifferential runs every kernel × thread count × shape × semiring
// against the naive reference. Values are small integers so plus-times is
// exact regardless of accumulation order; min-plus and max-min are
// order-insensitive by construction.
func TestKernelsDifferential(t *testing.T) {
	semirings := []*semiring.Semiring{semiring.PlusTimes(), semiring.MaxMin(), semiring.MinPlus()}
	for _, sh := range differentialShapes {
		a := randomMat(t, sh.rows, sh.inner, sh.nnzA, sh.seed*100+1)
		b := randomMat(t, sh.inner, sh.cols, sh.nnzB, sh.seed*100+2)
		for _, sr := range semirings {
			want := naiveMultiply(a, b, sr)
			for _, k := range allKernels {
				for _, threads := range []int{1, 2, 8} {
					name := fmt.Sprintf("%s/%s/%s/threads=%d", sh.name, sr.Name, k, threads)
					got := ParallelSpGEMM(k, a, b, sr, threads)
					if err := func() error { c := got.Clone(); c.Compact(nil); return c.Validate() }(); err != nil {
						t.Errorf("%s: invalid output: %v", name, err)
						continue
					}
					if !spmat.Equal(got, want) {
						t.Errorf("%s: differs from naive reference", name)
					}
					if got.Rows != want.Rows || got.Cols != want.Cols {
						t.Errorf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
					}
				}
			}
		}
	}
}

// TestKernelsDifferentialUnsortedInputs repeats the differential check with
// scrambled (unsorted-column) operands, the state SUMMA stages hand to the
// kernels mid-pipeline.
func TestKernelsDifferentialUnsortedInputs(t *testing.T) {
	a := scrambleColumns(randomMat(t, 35, 30, 200, 11), 1)
	b := scrambleColumns(randomMat(t, 30, 40, 220, 12), 2)
	for _, sr := range []*semiring.Semiring{semiring.PlusTimes(), semiring.MaxMin()} {
		want := naiveMultiply(a, b, sr)
		for _, k := range allKernels {
			for _, threads := range []int{1, 2, 8} {
				got := ParallelSpGEMM(k, a, b, sr, threads)
				if !spmat.Equal(got, want) {
					t.Errorf("%s/%s/threads=%d: differs from naive reference on unsorted inputs", sr.Name, k, threads)
				}
			}
		}
	}
}

// scrambleColumns returns a copy of m with every column's entries shuffled
// and SortedCols cleared.
func scrambleColumns(m *spmat.CSC, seed int64) *spmat.CSC {
	u := m.Clone()
	rng := rand.New(rand.NewSource(seed))
	for j := int32(0); j < u.Cols; j++ {
		lo, hi := u.ColPtr[j], u.ColPtr[j+1]
		n := int(hi - lo)
		rng.Shuffle(n, func(x, y int) {
			u.RowIdx[lo+int64(x)], u.RowIdx[lo+int64(y)] = u.RowIdx[lo+int64(y)], u.RowIdx[lo+int64(x)]
			u.Val[lo+int64(x)], u.Val[lo+int64(y)] = u.Val[lo+int64(y)], u.Val[lo+int64(x)]
		})
	}
	u.SortedCols = false
	return u
}

// TestParallelBitIdenticalLargeFlops is the tentpole's acceptance check: on a
// product with ≥ 1e6 flops, the 8-thread kernel must produce bit-identical
// structure and values to the serial kernel after canonical column sorting.
// Per column the parallel numeric pass accumulates in exactly the serial
// operand order, so even float64 plus-times values match bit for bit.
func TestParallelBitIdenticalLargeFlops(t *testing.T) {
	a := randomMat(t, 2000, 2000, 60000, 42)
	sr := semiring.PlusTimes()
	if f := Flops(a, a); f < 1e6 {
		t.Fatalf("workload too small: %d flops, want >= 1e6", f)
	}
	want := ParallelSpGEMM(KernelHashUnsorted, a, a, sr, 1)
	want.SortColumns()
	got := ParallelSpGEMM(KernelHashUnsorted, a, a, sr, 8)
	got.SortColumns()
	if got.NNZ() != want.NNZ() {
		t.Fatalf("nnz %d, want %d", got.NNZ(), want.NNZ())
	}
	for j := int32(0); j <= want.Cols; j++ {
		if got.ColPtr[j] != want.ColPtr[j] {
			t.Fatalf("ColPtr[%d] = %d, want %d", j, got.ColPtr[j], want.ColPtr[j])
		}
	}
	for p := range want.RowIdx {
		if got.RowIdx[p] != want.RowIdx[p] {
			t.Fatalf("RowIdx[%d] = %d, want %d", p, got.RowIdx[p], want.RowIdx[p])
		}
		if got.Val[p] != want.Val[p] {
			t.Fatalf("Val[%d] = %x, want %x (not bit-identical)", p, got.Val[p], want.Val[p])
		}
	}
}

// TestParallelMergeDifferential checks both mergers × thread counts against
// the serial hash merge on operand sets that include empty and duplicate-row
// matrices.
func TestParallelMergeDifferential(t *testing.T) {
	sr := semiring.PlusTimes()
	base := randomMat(t, 40, 30, 200, 20)
	mats := []*spmat.CSC{
		base,
		scrambleColumns(randomMat(t, 40, 30, 150, 21), 3),
		spmat.New(40, 30), // all-empty operand
		randomMat(t, 40, 30, 60, 22),
	}
	want := ParallelMerge(MergerHash, mats, sr, true, 1)
	for _, mg := range []Merger{MergerHash, MergerHeap} {
		for _, threads := range []int{1, 2, 8} {
			got := ParallelMerge(mg, mats, sr, true, threads)
			if !spmat.Equal(got, want) {
				t.Errorf("%s/threads=%d: merge differs from serial", mg, threads)
			}
			if !got.SortedCols {
				t.Errorf("%s/threads=%d: sorted output not flagged", mg, threads)
			}
			if err := got.Validate(); err != nil {
				t.Errorf("%s/threads=%d: %v", mg, threads, err)
			}
		}
	}
}
