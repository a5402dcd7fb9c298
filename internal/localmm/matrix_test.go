package localmm

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// hyperMat builds a random rows×cols matrix with about nnz entries —
// hypersparse when nnz ≪ cols.
func hyperMat(t testing.TB, rows, cols int32, nnz int, seed int64) *spmat.CSC {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := make([]spmat.Triple, 0, nnz)
	for i := 0; i < nnz; i++ {
		ts = append(ts, spmat.Triple{
			Row: int32(rng.Intn(int(rows))),
			Col: int32(rng.Intn(int(cols))),
			Val: float64(rng.Intn(9) + 1),
		})
	}
	m, err := spmat.FromTriples(rows, cols, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// asFormat converts per the format flag.
func asFormat(m *spmat.CSC, dcsc bool) spmat.Matrix {
	if dcsc {
		return m.ToDCSC()
	}
	return m
}

// TestMulMatDifferential: every kernel × every format combination of the
// operands must produce exactly the CSC kernels' values (spmat.Equal
// canonicalizes order, compares floats exactly), with the output format
// following B.
func TestMulMatDifferential(t *testing.T) {
	sr := semiring.PlusTimes()
	shapes := []struct {
		ar, ac, bc int32
		an, bn     int
	}{
		{40, 40, 40, 300, 300},   // dense-ish square
		{24, 512, 30, 400, 80},   // hypersparse A
		{30, 64, 2048, 200, 500}, // hypersparse B
		{16, 1024, 1024, 90, 95}, // both hypersparse
	}
	for si, sh := range shapes {
		a := hyperMat(t, sh.ar, sh.ac, sh.an, int64(100+si))
		b := hyperMat(t, sh.ac, sh.bc, sh.bn, int64(200+si))
		for _, k := range allKernels {
			want := spgemmTest(k, a, b, sr, 1)
			for _, aD := range []bool{false, true} {
				for _, bD := range []bool{false, true} {
					for _, threads := range []int{1, 4} {
						got := mulTest(k, asFormat(a, aD), asFormat(b, bD), sr, threads)
						wantFmt := spmat.FormatCSC
						if bD {
							wantFmt = spmat.FormatDCSC
						}
						if got.Format() != wantFmt {
							t.Fatalf("shape %d %v aD=%v bD=%v: output format %v, want %v", si, k, aD, bD, got.Format(), wantFmt)
						}
						if d, ok := got.(*spmat.DCSC); ok {
							if err := d.Validate(); err != nil {
								t.Fatalf("shape %d %v aD=%v bD=%v t=%d: invalid DCSC output: %v", si, k, aD, bD, threads, err)
							}
						}
						if !spmat.Equal(want, got.ToCSC()) {
							t.Fatalf("shape %d %v aD=%v bD=%v t=%d: values differ from CSC kernel", si, k, aD, bD, threads)
						}
					}
				}
			}
		}
	}
}

// TestMulMatOutputFormatFollowsB pins the output-format contract.
func TestMulMatOutputFormatFollowsB(t *testing.T) {
	sr := semiring.PlusTimes()
	a := hyperMat(t, 16, 256, 60, 1)
	b := hyperMat(t, 256, 512, 70, 2)
	if got := MulMat(KernelHashUnsorted, a.ToDCSC(), b.ToDCSC(), sr, 1); got.Format() != spmat.FormatDCSC {
		t.Errorf("dcsc·dcsc output is %v", got.Format())
	}
	if got := MulMat(KernelHashUnsorted, a.ToDCSC(), b, sr, 1); got.Format() != spmat.FormatCSC {
		t.Errorf("dcsc·csc output is %v", got.Format())
	}
	if got := MulMat(KernelHashUnsorted, a, b.ToDCSC(), sr, 1); got.Format() != spmat.FormatDCSC {
		t.Errorf("csc·dcsc output is %v", got.Format())
	}
}

// TestSymbolicAndFlopsMatAgree: the generic symbolic and flop counts must
// match the CSC routines for every format combination and thread count.
func TestSymbolicAndFlopsMatAgree(t *testing.T) {
	a := hyperMat(t, 32, 800, 250, 7)
	b := hyperMat(t, 800, 900, 260, 8)
	wantF := Flops(a, b)
	wantS := SymbolicSpGEMM(a, b)
	for _, aD := range []bool{false, true} {
		for _, bD := range []bool{false, true} {
			am, bm := asFormat(a, aD), asFormat(b, bD)
			if got := MatFlops(am, bm); got != wantF {
				t.Errorf("aD=%v bD=%v: MatFlops %d, want %d", aD, bD, got, wantF)
			}
			for _, threads := range []int{1, 4} {
				if got := SymbolicMat(am, bm, threads); got != wantS {
					t.Errorf("aD=%v bD=%v t=%d: SymbolicMat %d, want %d", aD, bD, threads, got, wantS)
				}
			}
		}
	}
}

// TestPlanServesEveryConsumer: one PlanMul pass must serve every consumer of
// the flop counts — the total the distributed stage reports, each kernel at
// each thread count (balancing and table sizes come from the plan's vector),
// and the symbolic count — and give exactly what the one-shot entry points
// give, for every format combination, however often it is reused. Besides
// the plain pair it covers the shapes that reach A through a doubly
// compressed lookup in other ways: a kmer-like DCSC A whose stored columns
// most of B's rows miss, B as a column-range piece over shared arrays (a
// Merge-Layer output's fiber view), and a semiring off the plus-times fast
// path. Every product is also held to naiveMultiply, which shares no code
// with the kernels.
func TestPlanServesEveryConsumer(t *testing.T) {
	piece := func(m *spmat.CSC, dcsc bool) spmat.Matrix {
		return spmat.MatColRanges(asFormat(m, dcsc), []int32{0, 300, 700, m.Cols})[1]
	}
	cases := []struct {
		name string
		a, b *spmat.CSC
		bOf  func(m *spmat.CSC, dcsc bool) spmat.Matrix
		sr   *semiring.Semiring
	}{
		{"plain", hyperMat(t, 32, 800, 250, 7), hyperMat(t, 800, 900, 260, 8), asFormat, semiring.PlusTimes()},
		{"kmer-misses", hyperMat(t, 48, 1<<14, 1500, 9), hyperMat(t, 1<<14, 700, 1400, 10), asFormat, semiring.PlusTimes()},
		{"b-piece", hyperMat(t, 32, 800, 250, 11), hyperMat(t, 800, 900, 900, 12), piece, semiring.PlusTimes()},
		{"min-plus", hyperMat(t, 32, 800, 250, 13), hyperMat(t, 800, 900, 260, 14), asFormat, semiring.MinPlus()},
	}
	for _, c := range cases {
		for _, aD := range []bool{false, true} {
			for _, bD := range []bool{false, true} {
				am, bm := asFormat(c.a, aD), c.bOf(c.b, bD)
				bCSC := bm.ToCSC()
				var wantF int64
				for _, f := range ColFlops(c.a, bCSC) {
					wantF += f
				}
				wantS := SymbolicSpGEMM(c.a, bCSC)
				naive := naiveMultiply(c.a, bCSC, c.sr)
				if wantS != naive.NNZ() {
					t.Fatalf("%s: symbolic count %d, naive product has %d entries", c.name, wantS, naive.NNZ())
				}
				label := fmt.Sprintf("%s aD=%v bD=%v", c.name, aD, bD)
				pl := PlanMul(am, bm)
				if pl.Flops != wantF || MatFlops(am, bm) != wantF {
					t.Fatalf("%s: plan counts %d flops, MatFlops %d, column sum %d", label, pl.Flops, MatFlops(am, bm), wantF)
				}
				for _, threads := range []int{1, 4} {
					if got := pl.Symbolic(threads); got != wantS {
						t.Fatalf("%s t=%d: plan symbolic %d, want %d", label, threads, got, wantS)
					}
					if got := SymbolicMat(am, bm, threads); got != wantS {
						t.Fatalf("%s t=%d: SymbolicMat %d, want %d", label, threads, got, wantS)
					}
					for _, k := range allKernels {
						got, want := pl.mulTest(k, c.sr, clampThreads(threads, pl.bv.n, pl.Flops)), mulTest(k, am, bm, c.sr, 1)
						if got.Format() != want.Format() || string(got.Serialize()) != string(want.Serialize()) {
							t.Fatalf("%s t=%d %v: planned multiply differs from MulMat", label, threads, k)
						}
						if !spmat.Equal(got.ToCSC(), naive) {
							t.Fatalf("%s t=%d %v: planned multiply differs from the naive product", label, threads, k)
						}
					}
				}
			}
		}
	}
}

// TestOutputColumnLookupsMatchScan: the doubly-compressed outputs of the
// kernels and mergers are built without a column index; the first lookups on
// them must find what a linear scan of JC finds, for every column.
func TestOutputColumnLookupsMatchScan(t *testing.T) {
	sr := semiring.PlusTimes()
	a := hyperMat(t, 30, 64, 200, 31)
	b := hyperMat(t, 64, 2048, 500, 32)
	prod := MulMat(KernelHashUnsorted, a, b.ToDCSC(), sr, 2)
	other := MulMat(KernelHashSorted, hyperMat(t, 30, 64, 150, 33), b.ToDCSC(), sr, 1)
	merged := MergeMat(MergerHash, []spmat.Matrix{prod, other}, sr, true, 2)
	for _, m := range []spmat.Matrix{prod, other, merged} {
		d := m.(*spmat.DCSC)
		for j := int32(-1); j <= d.Cols; j++ {
			var wantRows []int32
			for p, c := range d.JC {
				if c == j {
					wantRows = d.IR[d.CP[p]:d.CP[p+1]]
				}
			}
			rows, vals := d.Column(j)
			if len(rows) != len(wantRows) || len(vals) != len(wantRows) || d.ColNNZ(j) != int64(len(wantRows)) ||
				len(rows) > 0 && &rows[0] != &wantRows[0] {
				t.Fatalf("%v: lookup of column %d disagrees with a scan of JC", d, j)
			}
		}
	}
}

// TestMergeMatDifferential: both merges over uniform and mixed format
// operand sets must reproduce the CSC merges exactly.
func TestMergeMatDifferential(t *testing.T) {
	sr := semiring.PlusTimes()
	base := []*spmat.CSC{
		hyperMat(t, 20, 600, 150, 11),
		hyperMat(t, 20, 600, 140, 12),
		hyperMat(t, 20, 600, 20, 13), // very sparse operand
	}
	for _, mg := range allMergers {
		want := ParallelMerge(mg, base, sr, true, 1)
		// Format masks: all-CSC, all-DCSC, mixed.
		for mi, mask := range [][]bool{
			{false, false, false},
			{true, true, true},
			{true, false, true},
		} {
			mats := make([]spmat.Matrix, len(base))
			for i, m := range base {
				mats[i] = asFormat(m, mask[i])
			}
			for _, threads := range []int{1, 4} {
				got := mergeTest(mg, mats, sr, true, threads)
				if !spmat.Equal(want, got.ToCSC()) {
					t.Fatalf("%v mask %d t=%d: merged values differ", mg, mi, threads)
				}
				if mi == 1 && got.Format() != spmat.FormatDCSC {
					t.Fatalf("%v: all-DCSC merge produced %v", mg, got.Format())
				}
				if mi == 2 && got.Format() != spmat.FormatCSC {
					t.Fatalf("%v: mixed merge produced %v, want csc", mg, got.Format())
				}
			}
		}
	}
	// Unsorted hash merge keeps insertion order semantics.
	mats := []spmat.Matrix{base[0].ToDCSC(), base[1].ToDCSC()}
	want := ParallelMerge(mergerHash, base[:2], sr, false, 1)
	got := MergeMat(MergerHash, mats, sr, false, 1)
	if got.Sorted() {
		t.Error("unsorted merge claimed sorted output")
	}
	if !spmat.Equal(want, got.ToCSC()) {
		t.Error("unsorted hash merge differs across formats")
	}
}

// TestHypersparseWorkIsNNZProportional is the operation-count assertion of
// the DCSC path: multiply and symbolic on blocks with ~2^30 logical columns
// and rows but only ~10^3 entries. Any O(cols) scan or allocation (a dense
// ColPtr would be 8 GiB) would blow the allocation budget measured here by
// orders of magnitude; the generic kernels must stay proportional to
// nnz/flops.
func TestHypersparseWorkIsNNZProportional(t *testing.T) {
	const dim = int32(1 << 30)
	const nnz = 1000
	sr := semiring.PlusTimes()

	// Build DCSC operands directly (a CSC intermediate would itself be
	// O(cols)).
	build := func(seed int64) *spmat.DCSC {
		rng := rand.New(rand.NewSource(seed))
		cols := make(map[int32][]int32, nnz/2)
		for i := 0; i < nnz; i++ {
			j := int32(rng.Intn(int(dim)))
			cols[j] = append(cols[j], int32(rng.Intn(int(dim))))
		}
		jcs := make([]int32, 0, len(cols))
		for j := range cols {
			jcs = append(jcs, j)
		}
		// Sort column indices.
		for i := 1; i < len(jcs); i++ {
			for k := i; k > 0 && jcs[k] < jcs[k-1]; k-- {
				jcs[k], jcs[k-1] = jcs[k-1], jcs[k]
			}
		}
		d := &spmat.DCSC{Rows: dim, Cols: dim, CP: []int64{0}}
		for _, j := range jcs {
			rows := cols[j]
			d.JC = append(d.JC, j)
			for _, r := range rows {
				d.IR = append(d.IR, r)
				d.Num = append(d.Num, 1)
			}
			d.CP = append(d.CP, int64(len(d.IR)))
		}
		return d
	}
	a := build(41)
	b := build(42)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	prod := MulMat(KernelHashUnsorted, a, b, sr, 1)
	sym := SymbolicMat(a, b, 1)
	flops := MatFlops(a, b)
	runtime.ReadMemStats(&after)

	// Generous bound: a few MB is plenty for 10^3-entry operands; a single
	// dense column-pointer array would need 8 GiB.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Fatalf("hypersparse multiply+symbolic allocated %d bytes — smells like an O(cols) scan", alloc)
	}
	if prod.NNZ() != sym {
		t.Fatalf("symbolic %d disagrees with numeric nnz %d", sym, prod.NNZ())
	}

	// Correctness against a brute-force triple-map reference.
	type cell struct{ r, c int32 }
	wantVals := make(map[cell]float64)
	a.EnumCols(func(aj int32, aRows []int32, aVals []float64) {
		// For each B entry with row index aj, contribute A's column aj.
		b.EnumCols(func(bj int32, bRows []int32, bVals []float64) {
			for p, br := range bRows {
				if br != aj {
					continue
				}
				for q := range aRows {
					wantVals[cell{aRows[q], bj}] += aVals[q] * bVals[p]
				}
			}
		})
	})
	gotCount := 0
	ok := true
	prod.ToDCSC().EnumCols(func(j int32, rows []int32, vals []float64) {
		for p := range rows {
			gotCount++
			if wantVals[cell{rows[p], j}] != vals[p] {
				ok = false
			}
		}
	})
	if !ok || gotCount != len(wantVals) {
		t.Fatalf("hypersparse product wrong: %d entries vs %d expected (values ok: %v)", gotCount, len(wantVals), ok)
	}
	if flops == 0 && len(wantVals) > 0 {
		t.Fatal("MatFlops reported zero work for a nonzero product")
	}
}
