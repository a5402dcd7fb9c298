package localmm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// valueMat builds a random rows×cols matrix of about nnz entries whose rows
// are drawn from span rows spread evenly over the height — so that columns of
// different operands meet on rows as often on a 2¹⁶-row block as on a
// 2¹⁰-row one — with full-precision values, −0.0 and NaN among them.
func valueMat(t testing.TB, rows, cols int32, nnz int, span int32, seed int64) *spmat.CSC {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := make([]spmat.Triple, 0, nnz)
	for range nnz {
		if cols == 0 {
			break
		}
		v := rng.NormFloat64()
		switch x := rng.Intn(40); {
		case x < 3:
			v = math.Copysign(0, -1)
		case x < 4:
			v = math.NaN()
		}
		ts = append(ts, spmat.Triple{Row: int32(rng.Intn(int(span))) * (rows / span), Col: int32(rng.Intn(int(cols))), Val: v})
	}
	m, err := spmat.FromTriples(rows, cols, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// window is the columns [lo, hi) of m as a merge operand, the way a
// Merge-Layer reads them: m itself when they are all of it.
func window(m spmat.Matrix, lo, hi int32) spmat.Matrix {
	if _, cols := m.Dims(); lo == 0 && hi == cols {
		return m
	}
	return spmat.MatColRanges(m, []int32{lo, hi})[0]
}

// sameStored reports whether two matrices hold the same shape, format,
// sorted flag, entries in stored order and value bits.
func sameStored(a, b spmat.Matrix) bool {
	return a.Format() == b.Format() && a.Sorted() == b.Sorted() && string(a.Serialize()) == string(b.Serialize())
}

// entryArrays returns a CSC's or DCSC's entry arrays.
func entryArrays(m spmat.Matrix) ([]int32, []float64) {
	if c, ok := m.(*spmat.CSC); ok {
		return c.RowIdx, c.Val
	}
	d := m.(*spmat.DCSC)
	return d.IR, d.Num
}

// TestMulMergeMatchesMergeOfTheProduct holds the fused last-stage merge to
// what it replaces — MergeMat over the earlier parts and the window of the
// materialized product — in values, stored order, format and sorted flag,
// and its count to the window's entries: 0–3 earlier parts, sorted and
// unsorted, CSC and DCSC mixed; B as CSC, as DCSC and as a MatColRanges piece
// of either; A sorted CSC and unsorted DCSC; full, middle and empty windows;
// the direct (2¹⁰ rows) and hash (2¹⁶ rows) regimes; every kernel × merger ×
// sorted or unsorted merge; plus-times and min-plus; −0.0 and NaN among the
// values; one and four threads, lent and owned. The plan serves every window
// before it is released, and a lent output and the released plan read
// poisoned once handed back.
func TestMulMergeMatchesMergeOfTheProduct(t *testing.T) {
	defer PoisonReturnedChunks.Store(PoisonReturnedChunks.Swap(true))
	const inner, cols = 96, 120
	semirings := []*semiring.Semiring{semiring.PlusTimes(), semiring.MinPlus()}
	for _, rows := range []int32{1 << 10, 1 << 16} {
		aCSC := valueMat(t, rows, inner, 600, 64, int64(rows)+1)
		src := valueMat(t, inner, cols+50, 600, inner, int64(rows)+2)
		bCSC := valueMat(t, inner, cols, 400, inner, int64(rows)+3)
		bForms := []struct {
			name string
			b    spmat.Matrix
		}{
			{"csc", bCSC},
			{"dcsc", bCSC.ToDCSC()},
			{"piece-csc", spmat.MatColRanges(src, []int32{0, 20, 20 + cols, cols + 50})[1]},
			{"piece-dcsc", spmat.MatColRanges(src.ToDCSC(), []int32{0, 20, 20 + cols, cols + 50})[1]},
		}
		for bi, bf := range bForms {
			a := spmat.Matrix(aCSC)
			if bi%2 == 1 {
				a = scrambleColumns(aCSC, int64(bi)).ToDCSC()
			}
			pl := PlanMul(a, bf.b)
			for wi, win := range [][2]int32{{0, cols}, {cols / 4, 3 * cols / 4}, {cols / 2, cols / 2}} {
				lo, hi := win[0], win[1]
				var prev []spmat.Matrix
				for parts := range 4 {
					label := fmt.Sprintf("rows=%d/b=%s/window=%v/parts=%d", rows, bf.name, win, parts)
					for _, sr := range semirings {
						for _, k := range allKernels {
							wantWin := window(pl.Mul(k, sr, 1), lo, hi)
							for _, mg := range []Merger{MergerHash, MergerHeap} {
								for _, sortOut := range []bool{false, true} {
									want := MergeMat(mg, append(slices.Clip(prev), wantWin), sr, sortOut, 1)
									wantBytes := string(want.Serialize())
									// Four threads collapse to one worker here;
									// TestMulMergeRunsSeveralRanges runs several.
									for _, lend := range []bool{false, true} {
										threads := 1 + 3*b2i(lend)
										name := fmt.Sprintf("%s/%s/%v/%v/sorted=%v/t%d/lend=%v", label, sr.Name, k, mg, sortOut, threads, lend)
										var got spmat.Matrix
										var loan Loan
										var nnz int64
										if lend {
											got, loan, nnz = pl.MulMergeLent(k, mg, prev, lo, hi, sr, sortOut, threads)
										} else {
											got, nnz = pl.MulMerge(k, mg, prev, lo, hi, sr, sortOut, threads)
										}
										if got.Format() != want.Format() || got.Sorted() != want.Sorted() || string(got.Serialize()) != wantBytes {
											t.Fatalf("%s: fused merge differs from the merge of the materialized product", name)
										}
										if nnz != wantWin.NNZ() {
											t.Fatalf("%s: fused merge counts %d product entries, the window holds %d", name, nnz, wantWin.NNZ())
										}
										if lend && got.NNZ() > 0 && loan.c.bytes() == 0 {
											t.Fatalf("%s: a single-range output was not lent", name)
										}
										loan.Return()
										if r, v := entryArrays(got); lend && got.NNZ() > 0 &&
											(slices.ContainsFunc(r, func(r int32) bool { return r != -1 }) || slices.ContainsFunc(v, func(x float64) bool { return !math.IsNaN(x) })) {
											t.Fatalf("%s: a returned output does not read poisoned", name)
										}
									}
								}
							}
						}
					}
					// The next part: alternately CSC and DCSC, sorted and not.
					part := valueMat(t, rows, hi-lo, int(hi-lo)*4, 64, int64(rows)*10+int64(bi*100+wi*10+parts))
					p := spmat.Matrix(part)
					if (parts+wi)%2 == 1 {
						p = scrambleColumns(part, int64(parts))
					}
					if (parts+bi)%2 == 1 {
						p = p.ToCSC().ToDCSC()
					}
					prev = append(prev, p)
				}
			}
			s := pl.scratch
			pl.Release()
			if slices.ContainsFunc(s.colFlops[:cap(s.colFlops)], func(f int64) bool { return f != -1 }) {
				t.Fatalf("rows=%d/b=%s: the released plan's arrays are not poisoned", rows, bf.name)
			}
		}
	}
}

// TestMulMergeRunsSeveralRanges: a fused merge whose work pays for four
// workers runs them, returns owned arrays and no loan, lent or not, and is
// still the merge of the materialized product, bit for bit — on the table's
// path (unsorted hash) and the scratch column's (heap), under both mergers.
func TestMulMergeRunsSeveralRanges(t *testing.T) {
	sr := semiring.PlusTimes()
	a := uniformMat(t, 1024, 256, 40, 4301)
	b := uniformMat(t, 256, 400, 16, 4302)
	prev := []spmat.Matrix{uniformMat(t, 1024, 400, 20, 4303), uniformMat(t, 1024, 400, 20, 4304).ToDCSC()}
	pl := PlanMul(a, b)
	defer pl.Release()
	if clampThreads(4, 400, pl.Flops) < 4 {
		t.Fatalf("%d flops do not pay for four workers", pl.Flops)
	}
	for _, k := range []Kernel{KernelHashUnsorted, KernelHeap} {
		for _, mg := range []Merger{MergerHash, MergerHeap} {
			for _, sortOut := range []bool{false, true} {
				want := MergeMat(mg, append(slices.Clip(prev), pl.Mul(k, sr, 1)), sr, sortOut, 1)
				owned, _ := pl.MulMerge(k, mg, prev, 0, 400, sr, sortOut, 4)
				got, loan, _ := pl.MulMergeLent(k, mg, prev, 0, 400, sr, sortOut, 4)
				if !sameStored(got, want) || !sameStored(owned, want) {
					t.Fatalf("%v/%v/sorted=%v: four workers' fused merge differs from the merge of the product", k, mg, sortOut)
				}
				if loan.c.bytes() != 0 {
					t.Fatalf("%v/%v/sorted=%v: a multi-range output was lent", k, mg, sortOut)
				}
			}
		}
	}
}
