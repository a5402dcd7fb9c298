package localmm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// randomMat builds a deterministic random sparse matrix.
func randomMat(t testing.TB, rows, cols int32, nnz int, seed int64) *spmat.CSC {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := make([]spmat.Triple, 0, nnz)
	for i := 0; i < nnz; i++ {
		ts = append(ts, spmat.Triple{
			Row: int32(rng.Intn(int(rows))),
			Col: int32(rng.Intn(int(cols))),
			Val: float64(rng.Intn(9) + 1), // small integers: exact arithmetic
		})
	}
	m, err := spmat.FromTriples(rows, cols, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// denseMultiply is the brute-force reference.
func denseMultiply(a, b *spmat.CSC) *spmat.CSC {
	da, db := a.ToDense(), b.ToDense()
	out := make([]float64, int(a.Rows)*int(b.Cols))
	for i := int32(0); i < a.Rows; i++ {
		for k := int32(0); k < a.Cols; k++ {
			av := da[int(i)*int(a.Cols)+int(k)]
			if av == 0 {
				continue
			}
			for j := int32(0); j < b.Cols; j++ {
				out[int(i)*int(b.Cols)+int(j)] += av * db[int(k)*int(b.Cols)+int(j)]
			}
		}
	}
	return spmat.Dense(a.Rows, b.Cols, out)
}

func TestKernelsMatchDenseReference(t *testing.T) {
	a := randomMat(t, 30, 25, 120, 1)
	b := randomMat(t, 25, 28, 110, 2)
	want := denseMultiply(a, b)
	sr := semiring.PlusTimes()
	for _, k := range allKernels {
		got := spgemmTest(k, a, b, sr, 1)
		got.DropZeros()
		if !spmat.Equal(got, want) {
			t.Errorf("kernel %v: wrong product", k)
		}
		if err := func() error { c := got.Clone(); c.Compact(nil); return c.Validate() }(); err != nil {
			t.Errorf("kernel %v: invalid output: %v", k, err)
		}
	}
}

func TestKernelsAgreeOnUnsortedInputs(t *testing.T) {
	a := randomMat(t, 40, 40, 200, 3)
	b := randomMat(t, 40, 40, 180, 4)
	// Scramble a's columns.
	ua := a.Clone()
	rng := rand.New(rand.NewSource(5))
	for j := int32(0); j < ua.Cols; j++ {
		lo, hi := ua.ColPtr[j], ua.ColPtr[j+1]
		n := int(hi - lo)
		rng.Shuffle(n, func(x, y int) {
			ua.RowIdx[lo+int64(x)], ua.RowIdx[lo+int64(y)] = ua.RowIdx[lo+int64(y)], ua.RowIdx[lo+int64(x)]
			ua.Val[lo+int64(x)], ua.Val[lo+int64(y)] = ua.Val[lo+int64(y)], ua.Val[lo+int64(x)]
		})
	}
	ua.SortedCols = false
	want := Multiply(a, b, semiring.PlusTimes())
	for _, k := range allKernels {
		got := spgemmTest(k, ua, b, semiring.PlusTimes(), 1)
		if !spmat.Equal(got, want) {
			t.Errorf("kernel %v: unsorted input changed result", k)
		}
	}
}

func TestSortednessContracts(t *testing.T) {
	a := randomMat(t, 50, 50, 300, 6)
	b := randomMat(t, 50, 50, 300, 7)
	sr := semiring.PlusTimes()
	if c := ParallelSpGEMM(KernelHashUnsorted, a, b, sr, 1); c.SortedCols {
		t.Error("unsorted-hash must report unsorted columns")
	}
	for _, k := range []testKernel{testKernel(KernelHashSorted), kernelHeap, kernelHybrid} {
		c := spgemmTest(k, a, b, sr, 1)
		if !c.SortedCols {
			t.Errorf("kernel %v must produce sorted columns", k)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("kernel %v: %v", k, err)
		}
	}
}

func TestKernelsEmptyOperands(t *testing.T) {
	sr := semiring.PlusTimes()
	a := spmat.New(10, 5)
	b := spmat.New(5, 8)
	for _, k := range allKernels {
		c := spgemmTest(k, a, b, sr, 1)
		if c.NNZ() != 0 || c.Rows != 10 || c.Cols != 8 {
			t.Errorf("kernel %v: empty product wrong: %v", k, c)
		}
	}
}

func TestKernelsIdentity(t *testing.T) {
	m := randomMat(t, 20, 20, 80, 8)
	id := spmat.Identity(20)
	sr := semiring.PlusTimes()
	for _, k := range allKernels {
		if got := spgemmTest(k, m, id, sr, 1); !spmat.Equal(got, m) {
			t.Errorf("kernel %v: M·I ≠ M", k)
		}
		if got := spgemmTest(k, id, m, sr, 1); !spmat.Equal(got, m) {
			t.Errorf("kernel %v: I·M ≠ M", k)
		}
	}
}

func TestKernelsShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inner-dimension mismatch did not panic")
		}
	}()
	ParallelSpGEMM(KernelHashUnsorted, spmat.New(3, 4), spmat.New(5, 3), semiring.PlusTimes(), 1)
}

func TestMinPlusSemiringProduct(t *testing.T) {
	// Shortest two-hop paths on a tiny graph.
	inf := 0.0 // structural zero = no edge in min-plus
	_ = inf
	a, _ := spmat.FromTriples(3, 3, []spmat.Triple{
		{Row: 1, Col: 0, Val: 2}, {Row: 2, Col: 1, Val: 3}, {Row: 2, Col: 0, Val: 10},
	}, nil)
	sr := semiring.MinPlus()
	c := Multiply(a, a, sr)
	// Path 0→1→2 costs 5; direct entries are products of stored edges only.
	if got := c.At(2, 0); got != 5 {
		t.Errorf("min-plus two-hop cost = %v, want 5", got)
	}
}

func TestBoolSemiringReachability(t *testing.T) {
	a, _ := spmat.FromTriples(3, 3, []spmat.Triple{
		{Row: 1, Col: 0, Val: 1}, {Row: 2, Col: 1, Val: 1},
	}, nil)
	c := spgemmTest(kernelHeap, a, a, semiring.BoolOrAnd(), 1)
	if got := c.At(2, 0); got != 1 {
		t.Errorf("bool reachability = %v, want 1", got)
	}
}

func TestKernelsAgreeProperty(t *testing.T) {
	sr := semiring.PlusTimes()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int32(rng.Intn(25) + 1)
		k := int32(rng.Intn(25) + 1)
		n := int32(rng.Intn(25) + 1)
		a := randomMat(t, m, k, rng.Intn(100), seed+1)
		b := randomMat(t, k, n, rng.Intn(100), seed+2)
		ref := spgemmTest(kernelHeap, a, b, sr, 1)
		for _, kn := range allKernels {
			if !spmat.Equal(spgemmTest(kn, a, b, sr, 1), ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestParallelSpGEMMMatchesSerial(t *testing.T) {
	a := randomMat(t, 60, 60, 500, 9)
	b := randomMat(t, 60, 60, 500, 10)
	sr := semiring.PlusTimes()
	want := Multiply(a, b, sr)
	for _, threads := range []int{1, 2, 3, 8, 100} {
		got := ParallelSpGEMM(KernelHashUnsorted, a, b, sr, threads)
		if !spmat.Equal(got, want) {
			t.Errorf("threads=%d: parallel result differs", threads)
		}
	}
}

func TestKernelStrings(t *testing.T) {
	if KernelHashUnsorted.String() != "unsorted-hash" || kernelHeap.String() != "heap" ||
		kernelHybrid.String() != "hybrid" || KernelHashSorted.String() != "sorted-hash" {
		t.Error("kernel names changed")
	}
	if MergerHash.String() != "hash-merge" || mergerHeap.String() != "heap-merge" {
		t.Error("merger names changed")
	}
}
