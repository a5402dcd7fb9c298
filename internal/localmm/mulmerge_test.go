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

// ownedProduct is the planned pair's product on one worker, the caller's.
func ownedProduct(pl *Plan, k Kernel, sr *semiring.Semiring) spmat.Matrix {
	out, _ := pl.Mul(k, sr, false, 1)
	return out
}

// sameAsHeapMerge fails unless m, its columns sorted, is the heap merge of
// mats (heapMerge), which shares no accumulator code with the hash merge.
func sameAsHeapMerge(t *testing.T, label string, m spmat.Matrix, mats []spmat.Matrix, sr *semiring.Semiring) {
	t.Helper()
	if !m.Sorted() {
		m = m.CloneMat()
		m.SortColumns()
	}
	if !sameStored(m, heapMerge(mats, sr, 1)) {
		t.Fatalf("%s: the merge, sorted, differs from the heap merge of its operands", label)
	}
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

// TestMulMergeMatchesMergeOfTheProduct holds the fused Merge-Layer to what
// it replaces — MergeMat over the earlier parts and the windows of the
// materialized products of every planned stage — in values, stored order,
// format and sorted flag, and its count to the windows' entries: 1–4
// planned stages behind 0–3 earlier parts, four operands at most (the staged
// schedule's shape is no part, the pipelined one's a single plan), the parts
// sorted and unsorted, CSC and DCSC mixed; each stage's B as CSC, as DCSC or
// as a MatColRanges piece of either, with A sorted CSC beside a CSC B and
// unsorted DCSC beside a DCSC one, and every other stage's B three times as
// dense; full, middle and empty windows; the direct (2¹⁰ rows) and hash
// (2¹⁶ rows) regimes; both kernels × sorted or unsorted merge; plus-times
// and min-plus; −0.0 and NaN among the values; one and four threads, lent
// and owned. The fused output, sorted, is also held to the heap merge of the
// same operands (heapMerge), which shares no accumulator code with the pass,
// so the check is not hash against hash only. The plans serve every window
// before they are released, and a lent output and every released plan read
// poisoned once handed back.
func TestMulMergeMatchesMergeOfTheProduct(t *testing.T) {
	defer spmat.PoisonReleased.Store(spmat.PoisonReleased.Swap(true))
	// One plan on 120-column blocks, lent and owned in every case. Two to
	// four plans on 48-column blocks, lent for the unsorted drain and owned
	// for the sorted one, which keeps the run short.
	checkFusedMerges(t, 120, 1, 1)
	checkFusedMerges(t, 48, 2, 4)
}

// checkFusedMerges runs TestMulMergeMatchesMergeOfTheProduct's cases with
// minN to maxN planned stages over blocks cols columns wide.
func checkFusedMerges(t *testing.T, cols int32, minN, maxN int) {
	const inner, operands = 96, 4
	semirings := []*semiring.Semiring{semiring.PlusTimes(), semiring.MinPlus()}
	for _, rows := range []int32{1 << 10, 1 << 16} {
		for form := range 4 {
			plans := make([]*Plan, maxN)
			for i := range plans {
				seed := int64(rows) + int64(100*form+10*i)
				dense := 1 + 2*(i%2)
				aCSC := valueMat(t, rows, inner, 600, 64, seed+1)
				src := valueMat(t, inner, cols+50, int(cols+50)*7/2*dense, inner, seed+2)
				bCSC := valueMat(t, inner, cols, int(cols)*10/3*dense, inner, seed+3)
				b := [4]spmat.Matrix{
					bCSC,
					bCSC.ToDCSC(),
					spmat.MatColRanges(src, []int32{0, 20, 20 + cols, cols + 50})[1],
					spmat.MatColRanges(src.ToDCSC(), []int32{0, 20, 20 + cols, cols + 50})[1],
				}[(form+2*i)%4]
				a := spmat.Matrix(aCSC)
				if form%2 == 1 {
					a = scrambleColumns(aCSC, seed).ToDCSC()
				}
				plans[i] = PlanMul(a, b)
			}
			for wi, win := range [][2]int32{{0, cols}, {cols / 4, 3 * cols / 4}, {cols / 2, cols / 2}} {
				lo, hi := win[0], win[1]
				var prev []spmat.Matrix
				for parts := range operands {
					for n := minN; n <= maxN && parts+n <= operands; n++ {
						label := fmt.Sprintf("cols=%d/rows=%d/form=%d/window=%v/parts=%d/plans=%d", cols, rows, form, win, parts, n)
						for _, sr := range semirings {
							for _, k := range engineKernels {
								wins := slices.Clip(prev)
								var planned int64
								for _, pl := range plans[:n] {
									wins = append(wins, window(ownedProduct(pl, k, sr), lo, hi))
									planned += wins[len(wins)-1].NNZ()
								}
								oracle := heapMerge(wins, sr, 1)
								for _, sortOut := range []bool{false, true} {
									want := MergeMat(MergerHash, wins, sr, sortOut, 1)
									lends := []bool{false, true}
									if n > 1 {
										lends = []bool{!sortOut}
									}
									for _, lend := range lends {
										checkFusedMerge(t, fmt.Sprintf("%s/%s/%v/sorted=%v", label, sr.Name, k, sortOut),
											k, prev, plans[:n], lo, hi, sr, sortOut, lend, want, oracle, planned)
									}
								}
							}
						}
					}
					// The next part: alternately CSC and DCSC, sorted and not.
					part := valueMat(t, rows, hi-lo, int(hi-lo)*4, 64, int64(rows)*10+int64(form*100+wi*10+parts))
					p := spmat.Matrix(part)
					if (parts+wi)%2 == 1 {
						p = scrambleColumns(part, int64(parts))
					}
					if (parts+form)%2 == 1 {
						p = p.ToCSC().ToDCSC()
					}
					prev = append(prev, p)
				}
			}
			for i, pl := range plans {
				s := pl.scratch
				pl.Release()
				if slices.ContainsFunc(s.colFlops[:cap(s.colFlops)], func(f int64) bool { return f != -1 }) {
					t.Fatalf("cols=%d/rows=%d/form=%d: released plan %d's arrays are not poisoned", cols, rows, form, i)
				}
			}
		}
	}
}

// checkFusedMerge runs one fused merge of prev and plans — lent at four
// threads or owned at one — and holds it to want, the merge of prev and the
// plans' materialized windows, its columns sorted to oracle, their heap
// merge, and its count to planned, their entries. Four threads collapse to
// one worker here; TestMulMergeRunsSeveralRanges runs several.
func checkFusedMerge(t *testing.T, label string, k Kernel, prev []spmat.Matrix, plans []*Plan, lo, hi int32, sr *semiring.Semiring, sortOut, lend bool, want, oracle spmat.Matrix, planned int64) {
	t.Helper()
	threads := 1 + 3*b2i(lend)
	name := fmt.Sprintf("%s/t%d/lend=%v", label, threads, lend)
	got, loan, nnz := MulMerge(k, prev, plans, lo, hi, sr, sortOut, lend, threads)
	if !sameStored(got, want) {
		t.Fatalf("%s: fused merge differs from the merge of the materialized products", name)
	}
	sorted := got
	if !got.Sorted() {
		sorted = got.CloneMat()
		sorted.SortColumns()
	}
	if !sameStored(sorted, oracle) {
		t.Fatalf("%s: fused merge, sorted, differs from the heap merge of the materialized products", name)
	}
	if nnz != planned {
		t.Fatalf("%s: fused merge counts %d planned entries, their windows hold %d", name, nnz, planned)
	}
	if lend && got.NNZ() > 0 && loan.chunkBytes() == 0 {
		t.Fatalf("%s: a single-range output was not lent", name)
	}
	if !lend && loan != (Loan{}) {
		t.Fatalf("%s: an owned output was lent", name)
	}
	loan.Return()
	if r, v := entryArrays(got); lend && got.NNZ() > 0 &&
		(slices.ContainsFunc(r, func(r int32) bool { return r != -1 }) || slices.ContainsFunc(v, func(x float64) bool { return !math.IsNaN(x) })) {
		t.Fatalf("%s: a returned output does not read poisoned", name)
	}
}

// TestMulMergeRunsSeveralRanges: a fused merge whose work pays for four
// workers runs them, returns owned arrays and no loan, lent or not, and is
// still the merge of the materialized products, bit for bit — under both
// kernels, sorted or not, with the staged schedule's three plans and no
// earlier part and the pipelined one's two parts and a plan. MergeMat runs
// the same pass, so both outputs, sorted, are also held to the heap merge of
// the products, which does not.
func TestMulMergeRunsSeveralRanges(t *testing.T) {
	sr := semiring.PlusTimes()
	var plans []*Plan
	for i := range int64(3) {
		pl := PlanMul(uniformMat(t, 1024, 256, 40, 4301+10*i), uniformMat(t, 256, 400, 16, 4302+10*i))
		defer pl.Release()
		if clampThreads(4, 400, pl.Flops) < 4 {
			t.Fatalf("%d flops do not pay for four workers", pl.Flops)
		}
		plans = append(plans, pl)
	}
	parts := []spmat.Matrix{uniformMat(t, 1024, 400, 20, 4303), uniformMat(t, 1024, 400, 20, 4304).ToDCSC()}
	for _, sh := range []struct {
		prev  []spmat.Matrix
		plans []*Plan
	}{{nil, plans}, {parts, plans[2:]}} {
		for _, k := range engineKernels {
			for _, sortOut := range []bool{false, true} {
				label := fmt.Sprintf("parts=%d/plans=%d/%v/sorted=%v", len(sh.prev), len(sh.plans), k, sortOut)
				mats := slices.Clip(sh.prev)
				for _, pl := range sh.plans {
					mats = append(mats, ownedProduct(pl, k, sr))
				}
				want := MergeMat(MergerHash, mats, sr, sortOut, 1)
				owned, _, _ := MulMerge(k, sh.prev, sh.plans, 0, 400, sr, sortOut, false, 4)
				got, loan, _ := MulMerge(k, sh.prev, sh.plans, 0, 400, sr, sortOut, true, 4)
				if !sameStored(got, want) || !sameStored(owned, want) {
					t.Fatalf("%s: four workers' fused merge differs from the merge of the products", label)
				}
				if loan != (Loan{}) {
					t.Fatalf("%s: a multi-range output was lent", label)
				}
				sameAsHeapMerge(t, label+"/owned", owned, mats, sr)
				sameAsHeapMerge(t, label+"/lent", got, mats, sr)
			}
		}
	}
}
