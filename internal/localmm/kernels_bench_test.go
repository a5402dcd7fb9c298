package localmm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// uniformMat builds a matrix with exactly perCol nonzeros in every column
// (distinct random rows), so A·B has a controlled flops-per-column:
// multiplying two uniform matrices with column degrees dA and dB yields
// dA·dB flops per output column. That lets the crossover benchmark place
// workloads on either side of the heap↔hash regime boundary precisely.
func uniformMat(tb testing.TB, rows, cols int32, perCol int, seed int64) *spmat.CSC {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := make([]spmat.Triple, 0, int(cols)*perCol)
	for j := int32(0); j < cols; j++ {
		for _, r := range rng.Perm(int(rows))[:perCol] {
			ts = append(ts, spmat.Triple{Row: int32(r), Col: j, Val: rng.Float64() + 0.5})
		}
	}
	m, err := spmat.FromTriples(rows, cols, ts, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkHashSpGEMMParallel is the thread sweep of the unsorted-hash
// kernel — the paper's Figure-2-style scaling of the local multiply. Results
// are recorded in BENCH_kernels.json (make bench-kernels).
func BenchmarkHashSpGEMMParallel(b *testing.B) {
	a := randomMat(b, 4096, 4096, 120000, 91)
	sr := semiring.PlusTimes()
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ParallelSpGEMM(KernelHashUnsorted, a, a, sr, threads)
			}
		})
	}
}

// BenchmarkKernelCrossover measures heap vs hash vs hybrid on both sides of
// the *modeled* regime boundary (64 flops per column, costmodel.KernelTable
// defaults, taken from the Azad et al. measurements the table encodes as its
// prior). On every host measured so far there is no crossover — unsorted-hash
// wins all four regimes — which is why nothing selects a kernel any more;
// this benchmark keeps that claim re-measurable, and BENCH_kernels.json
// snapshots it for the runner. The sorted-hash kernel, the previous
// generation's (Table VII, Fig. 15), runs beside them: the price of sorting
// every output column. Column degrees are uniform, making flops/col = dA·dB
// exact.
func BenchmarkKernelCrossover(b *testing.B) {
	sr := semiring.PlusTimes()
	shapes := []struct {
		name     string
		dA, dB   int
		rows     int32
		flopsCol int
	}{
		{"hypersparse", 2, 2, 8192, 4}, // far below the modeled crossover
		{"sparse", 4, 4, 4096, 16},     // below it
		{"boundary", 8, 8, 2048, 64},   // at the modeled meeting point
		{"dense", 32, 32, 1024, 1024},  // far above it
	}
	kernels := []Kernel{KernelHeap, KernelHashUnsorted, KernelHybrid, KernelHashSorted}
	for _, sh := range shapes {
		a := uniformMat(b, sh.rows, sh.rows, sh.dA, 92)
		bm := uniformMat(b, sh.rows, sh.rows, sh.dB, 93)
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s-%dflops-per-col/%v", sh.name, sh.flopsCol, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ParallelSpGEMM(k, a, bm, sr, 1)
				}
			})
		}
	}
}

// hyperDCSC builds a hypersparse doubly-compressed matrix: every stride-th
// column is stored and holds two distinct random rows.
func hyperDCSC(rows, stored, stride int32, seed int64) *spmat.DCSC {
	rng := rand.New(rand.NewSource(seed))
	d := &spmat.DCSC{Rows: rows, Cols: stored * stride, CP: []int64{0}}
	for p := int32(0); p < stored; p++ {
		r := rng.Int31n(rows)
		d.JC = append(d.JC, p*stride)
		d.IR = append(d.IR, r, (r+1+rng.Int31n(rows-1))%rows)
		d.Num = append(d.Num, rng.Float64()+0.5, rng.Float64()+0.5)
		d.CP = append(d.CP, int64(len(d.IR)))
	}
	return d
}

// BenchmarkMergeSortedOutput measures the sorted hash merge — the final
// Merge-Fiber, the one place the sort-free pipeline sorts — on two shapes:
// four unsorted CSC operands of 77 entries per column over 1024 rows, which
// merge to ≈270 entries per column (the protein-batched Merge-Fiber shape of
// bench/), and four hypersparse DCSC operands of 2 entries per stored
// column, one column in eight stored. The one-layer rows are a batch's two
// merges on a grid with l = 1, where Merge-Fiber has the single operand
// Merge-Layer made, on the protein shape: drain-sorted is what the engine
// runs — Merge-Layer drains its table in ascending order and the one-operand
// Merge-Fiber hands that back — and clone-sort what it ran before: an
// unsorted Merge-Layer, then a copy of its output sorted column by column.
// The heap rows are the previous generation's k-way heap merge (Table VII,
// Fig. 15) on the protein shape: of the same unsorted operands, whose sort it
// pays inside the merge, and of their sorted originals.
func BenchmarkMergeSortedOutput(b *testing.B) {
	sr := semiring.PlusTimes()
	protein := make([]spmat.Matrix, 4)
	sortedProtein := make([]spmat.Matrix, 4)
	hyper := make([]spmat.Matrix, 4)
	for i := range protein {
		sorted := uniformMat(b, 1024, 128, 77, 94+int64(i))
		sortedProtein[i], protein[i] = sorted, scrambleColumns(sorted, 95)
		hyper[i] = hyperDCSC(1<<20, 2048, 8, 98+int64(i))
	}
	for _, sh := range []struct {
		name string
		mats []spmat.Matrix
	}{{"protein-270-per-col", protein}, {"hypersparse-2-per-col", hyper}} {
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MergeMat(MergerHash, sh.mats, sr, true, 1)
			}
		})
	}
	b.Run("one-layer/drain-sorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := MergeMat(MergerHash, protein, sr, true, 1)
			MergeMat(MergerHash, []spmat.Matrix{d}, sr, true, 1)
		}
	})
	b.Run("one-layer/clone-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := MergeMat(MergerHash, protein, sr, false, 1).CloneMat()
			c.SortColumns()
		}
	})
	for _, in := range []struct {
		name string
		mats []spmat.Matrix
	}{{"unsorted-inputs", protein}, {"sorted-inputs", sortedProtein}} {
		b.Run("heap/"+in.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MergeMat(MergerHeap, in.mats, sr, true, 1)
			}
		})
	}
}

// BenchmarkMulMatGeneric measures the format-generic multiply with a
// hypersparse DCSC B (2 entries per stored column, one column in eight
// stored) against a CSC A, at one and two threads.
func BenchmarkMulMatGeneric(b *testing.B) {
	sr := semiring.PlusTimes()
	a := uniformMat(b, 8192, 8192, 4, 96)
	bm := hyperDCSC(8192, 8192, 8, 97)
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("dcsc-B/threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulMat(KernelHashUnsorted, a, bm, sr, threads)
			}
		})
	}
}

// BenchmarkPlanMulHypersparse measures the plan of one kmer-hyper stage
// block pair (bench/'s C = A·Aᵀ on a 2×2×16 grid): A is a 2048-read ×
// 8192-k-mer block with 1536 entries, stored DCSC like the engine stores it,
// and B a k-mer × read block of Aᵀ under the auto format. On the grid's
// diagonal B is A's own transpose, so every B entry's row is a stored column
// of A; off it B comes from other reads, and most rows are columns A does
// not store. plan is PlanMul and Release, stage a stage's whole local
// multiply: the plan, the unsorted-hash multiply on one worker and the
// release.
func BenchmarkPlanMulHypersparse(b *testing.B) {
	sr := semiring.PlusTimes()
	aCSC := hyperMat(b, 2048, 8192, 1536, 103)
	a := aCSC.ToDCSC()
	for _, sh := range []struct {
		name string
		b    spmat.Matrix
	}{
		{"diagonal", spmat.AutoFormat(spmat.Transpose(aCSC))},
		{"off-diagonal", spmat.AutoFormat(spmat.Transpose(hyperMat(b, 2048, 8192, 1536, 104)))},
	} {
		b.Run(sh.name+"/plan", func(b *testing.B) {
			for range b.N {
				PlanMul(a, sh.b).Release()
			}
		})
		b.Run(sh.name+"/stage", func(b *testing.B) {
			for range b.N {
				pl := PlanMul(a, sh.b)
				pl.Mul(KernelHashUnsorted, sr, 1)
				pl.Release()
			}
		})
	}
}

// BenchmarkMergeLayer times a Merge-Layer with its stages' multiplies, the
// three ways the engine has run it: materialize plans every stage, multiplies
// it into a lent product (Plan.MulLent) and merges the products (MergeLent);
// fused makes every stage's product but the last's, as the pipelined schedule
// still does, and merges the last straight out of the accumulator
// (MulMerge); fused-all, the staged schedule, plans every stage and merges
// them all in one pass, with no product written. Each releases its plans and
// returns its loans; the unsorted hash kernel and merger, and an unsorted
// merge, as on a grid with l > 1. Two block pairs at q = 2 and q = 4: kmer
// is BenchmarkPlanMulHypersparse's, a hypersparse DCSC A against the diagonal
// block of Aᵀ in the last stage and off-diagonal blocks before it; protein
// is a 1024-row A of 10 entries per column against 64-column B blocks of 4.
func BenchmarkMergeLayer(b *testing.B) {
	sr := semiring.PlusTimes()
	kmer := hyperMat(b, 2048, 8192, 1536, 103)
	protein := uniformMat(b, 1024, 256, 10, 105)
	kmerB := []spmat.Matrix{spmat.AutoFormat(spmat.Transpose(kmer))}
	proteinB := []spmat.Matrix{uniformMat(b, 256, 64, 4, 107)}
	for s := range int64(3) {
		kmerB = append(kmerB, spmat.AutoFormat(spmat.Transpose(hyperMat(b, 2048, 8192, 1536, 104+10*s))))
		proteinB = append(proteinB, uniformMat(b, 256, 64, 4, 106+10*s))
	}
	for _, sh := range []struct {
		name string
		a    spmat.Matrix
		bs   []spmat.Matrix // the last stage's first
	}{
		{"kmer", kmer.ToDCSC(), kmerB},
		{"protein", protein, proteinB},
	} {
		for _, q := range []int{2, 4} {
			// Stage order: the off-diagonal blocks, then the last stage's.
			bs := append(slices.Clone(sh.bs[1:q]), sh.bs[0])
			_, cols := bs[0].Dims()
			plans := make([]*Plan, q)
			prods := make([]spmat.Matrix, q)
			loans := make([]Loan, q)
			name := fmt.Sprintf("%s/q=%d/", sh.name, q)
			b.Run(name+"materialize", func(b *testing.B) {
				for range b.N {
					for s, bm := range bs {
						pl := PlanMul(sh.a, bm)
						prods[s], loans[s] = pl.MulLent(KernelHashUnsorted, sr, 1)
						pl.Release()
					}
					_, merged := MergeLent(MergerHash, prods, sr, false, 1)
					for s := range loans {
						loans[s].Return()
					}
					merged.Return()
				}
			})
			b.Run(name+"fused", func(b *testing.B) {
				for range b.N {
					for s, bm := range bs[:q-1] {
						pl := PlanMul(sh.a, bm)
						prods[s], loans[s] = pl.MulLent(KernelHashUnsorted, sr, 1)
						pl.Release()
					}
					plans[0] = PlanMul(sh.a, bs[q-1])
					_, merged, _ := MulMerge(KernelHashUnsorted, MergerHash, prods[:q-1], plans[:1], 0, cols, sr, false, true, 1)
					plans[0].Release()
					for s := range loans[:q-1] {
						loans[s].Return()
					}
					merged.Return()
				}
			})
			b.Run(name+"fused-all", func(b *testing.B) {
				for range b.N {
					for s, bm := range bs {
						plans[s] = PlanMul(sh.a, bm)
					}
					_, merged, _ := MulMerge(KernelHashUnsorted, MergerHash, nil, plans, 0, cols, sr, false, true, 1)
					for _, pl := range plans {
						pl.Release()
					}
					merged.Return()
				}
			})
		}
	}
}

// BenchmarkWorkerSpawnCrossover is the measurement workPerExtraWorker is set
// from: the unsorted-hash multiply at one worker and at two — through
// Plan.multiply, which runs exactly the worker count it is given, so the floor
// under test does not hide the losing side — over products of 0.5 k to 256 k
// flops, with B stored CSC and hypersparse DCSC (one column in eight stored).
// A is 1024×256 with 10 entries per column and B has 4 per stored column, so
// every B column costs 40 flops and the column count sets the work. The loop
// is hot — workers, scratch and operands stay cached between iterations — so
// the second worker's wake-up is as cheap here as it gets: the crossover read
// off this table is a lower bound on where a worker pays in the engine.
func BenchmarkWorkerSpawnCrossover(b *testing.B) {
	sr := semiring.PlusTimes()
	a := uniformMat(b, 1024, 256, 10, 101)
	for _, dcsc := range []bool{false, true} {
		for work := 512; work <= 256<<10; work *= 2 {
			cols := int32((work + 39) / 40)
			csc := uniformMat(b, 256, cols, 4, 102)
			var bm spmat.Matrix = csc
			format := "csc-B"
			if dcsc {
				d := &spmat.DCSC{Rows: csc.Rows, Cols: cols * 8, CP: csc.ColPtr, IR: csc.RowIdx, Num: csc.Val, SortedCols: csc.SortedCols}
				for p := int32(0); p < cols; p++ {
					d.JC = append(d.JC, p*8)
				}
				bm, format = d, "dcsc-B"
			}
			pl := PlanMul(a, bm)
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/flops=%d/workers=%d", format, pl.Flops, workers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						pl.multiply(KernelHashUnsorted, sr, workers, ownedOutput)
					}
				})
			}
		}
	}
}

// tallMat is uniformMat for row counts too large to permute per column:
// perCol distinct rows of every column are drawn by rejection.
func tallMat(rows, cols int32, perCol int, seed int64) *spmat.CSC {
	rng := rand.New(rand.NewSource(seed))
	m := &spmat.CSC{Rows: rows, Cols: cols, ColPtr: make([]int64, 1, cols+1)}
	for j := int32(0); j < cols; j++ {
		start := len(m.RowIdx)
		for len(m.RowIdx) < start+perCol {
			if r := rng.Int31n(rows); !slices.Contains(m.RowIdx[start:], r) {
				m.RowIdx = append(m.RowIdx, r)
				m.Val = append(m.Val, rng.Float64()+0.5)
			}
		}
		m.ColPtr = append(m.ColPtr, int64(len(m.RowIdx)))
	}
	return m
}

// hitMat builds a rows × cols·groups matrix whose columns come in runs of
// groups — one run per output column of the multiply or merge fed from it —
// so that share of a run's contributions land on a row an earlier column of
// the run already holds. Every column has per distinct rows; a hit draws
// uniformly among the run's rows the column does not hold yet, anything else a
// row new to the run, and the draws are independent, so the hit-or-new
// sequence an accumulator sees has no period. The first column of a run
// cannot hit, so the later ones hit that much more often (groups must leave
// room: share ≤ 1 − 1/groups).
func hitMat(rows, cols int32, groups, per int, share float64, seed int64) *spmat.CSC {
	rng := rand.New(rand.NewSource(seed))
	m := &spmat.CSC{Rows: rows, Cols: cols * int32(groups), ColPtr: make([]int64, 1, cols*int32(groups)+1)}
	p := share * float64(groups) / float64(groups-1)
	inRun := make([]int32, rows) // run number + 1 of the last run that used the row
	var seen, avail []int32
	for j := int32(0); j < cols; j++ {
		seen = seen[:0]
		for g := 0; g < groups; g++ {
			avail = append(avail[:0], seen...)
			for k := 0; k < per; k++ {
				var r int32
				if len(avail) > 0 && rng.Float64() < p {
					i := rng.Intn(len(avail))
					r, avail[i] = avail[i], avail[len(avail)-1]
					avail = avail[:len(avail)-1]
				} else {
					for r = rng.Int31n(rows); inRun[r] == j+1; r = rng.Int31n(rows) {
					}
					inRun[r] = j + 1
					seen = append(seen, r)
				}
				m.RowIdx = append(m.RowIdx, r)
				m.Val = append(m.Val, rng.Float64()+0.5)
			}
			m.ColPtr = append(m.ColPtr, int64(len(m.RowIdx)))
		}
	}
	return m
}

// everyNth returns columns i, i+n, i+2n, … of m as a matrix of their own.
func everyNth(m *spmat.CSC, i, n int32) *spmat.CSC {
	out := &spmat.CSC{Rows: m.Rows, Cols: m.Cols / n, ColPtr: []int64{0}}
	for j := i; j < m.Cols; j += n {
		rows, vals := m.Column(j)
		out.RowIdx, out.Val = append(out.RowIdx, rows...), append(out.Val, vals...)
		out.ColPtr = append(out.ColPtr, int64(len(out.RowIdx)))
	}
	return out
}

// BenchmarkAccumulatorCrossover is the measurement directTableBytes is set
// from: the unsorted-hash multiply and the unsorted hash merge of four
// operands, one worker, over output columns of 1, 4, 16 and 144
// contributions whose rows are spread over 2¹⁰ … 2²⁰ — in the direct regime
// (the operand declares the rows it spans) and in the hash regime (the same
// entries under a declared row count past the bound). Each regime is reached
// the way the kernels reach it, by the row count, so a span the bound rules
// out has no direct line: to size the constant, raise it and run again. Every
// case does 2¹⁷ contributions per iteration and reports ns per contribution.
//
// Rows drawn at random over the span almost never meet, so in those cells
// nearly every contribution is a new row — a sequence a branch predictor
// learns at once. The hits cells are the other axis: columns of 144
// contributions of which 0, 50 or 90 % land on a row already in the table
// (hitMat), as a multiply (12 A columns of 12 entries), a merge (16 operands
// of 9 entries a column — four cannot hit 90 %) and the symbolic count of
// that multiply (kind count: rowSet.countColumn, whose direct bound is
// directStampRows). Real blocks hit 35–60 % of the time; an insert that
// branches on hit-or-new shows here and nowhere above.
func BenchmarkAccumulatorCrossover(b *testing.B) {
	const work = 1 << 17
	sr := semiring.PlusTimes()
	perFlop := func(b *testing.B, flops int64) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(flops), "ns/flop")
	}
	for _, lg := range []int{10, 12, 14, 15, 16, 18, 20} {
		span := int32(1) << lg
		for _, sh := range []struct{ flops, dA, dB int }{{1, 1, 1}, {4, 2, 2}, {16, 4, 4}, {144, 12, 12}} {
			cols := int32(work / sh.flops)
			a := tallMat(span, 1024, sh.dA, 401)
			bm := tallMat(1024, cols, sh.dB, 402)
			parts := make([]*spmat.CSC, 4)
			for i := range parts {
				parts[i] = tallMat(span, cols, (sh.flops+3-i)/4, 403+int64(i))
			}
			for _, regime := range []string{"direct", "hash"} {
				declared := span
				if regime == "hash" {
					declared = max(span, directAccumRows+1)
				} else if span > directAccumRows {
					continue
				}
				name := fmt.Sprintf("rows=2^%d/flops=%d/%s", lg, sh.flops, regime)
				pl := PlanMul(withRows(a, declared), bm)
				b.Run("mul/"+name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						pl.multiply(KernelHashUnsorted, sr, 1, ownedOutput)
					}
					perFlop(b, pl.Flops)
				})
				mats := make([]spmat.Matrix, len(parts))
				var entries int64
				for i, m := range parts {
					mats[i] = withRows(m, declared)
					entries += m.NNZ()
				}
				b.Run("merge/"+name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						MergeMat(MergerHash, mats, sr, false, 1)
					}
					perFlop(b, entries)
				})
			}
		}
	}

	const cols, dA, dB, operands = work / 144, 12, 12, 16
	// B column j selects A columns j·dB … j·dB+dB−1, one run of hitMat's.
	bm := &spmat.CSC{Rows: cols * dB, Cols: cols, ColPtr: make([]int64, cols+1), RowIdx: make([]int32, cols*dB), Val: make([]float64, cols*dB)}
	for p := range bm.RowIdx {
		bm.RowIdx[p], bm.Val[p] = int32(p), 1.5
		bm.ColPtr[p/dB+1] = int64(p + 1)
	}
	for _, lg := range []int{10, 15} {
		span := int32(1) << lg
		for _, hits := range []int{0, 50, 90} {
			a := hitMat(span, cols, dB, dA, float64(hits)/100, 411)
			wide := hitMat(span, cols, operands, dA*dB/operands, float64(hits)/100, 412)
			for _, regime := range []string{"direct", "hash"} {
				accRows, stampRows := span, span
				if regime == "hash" {
					accRows, stampRows = directAccumRows+1, directStampRows+1
				}
				name := fmt.Sprintf("rows=2^%d/flops=144/hits=%d/%s", lg, hits, regime)
				pl := PlanMul(withRows(a, accRows), bm)
				b.Run("mul/"+name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						pl.multiply(KernelHashUnsorted, sr, 1, ownedOutput)
					}
					perFlop(b, pl.Flops)
				})
				mats := make([]spmat.Matrix, operands)
				for i := range mats {
					mats[i] = withRows(everyNth(wide, int32(i), operands), accRows)
				}
				b.Run("merge/"+name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						MergeMat(MergerHash, mats, sr, false, 1)
					}
					perFlop(b, wide.NNZ())
				})
				sym := PlanMul(withRows(a, stampRows), bm)
				b.Run("count/"+name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						sym.Symbolic(1)
					}
					perFlop(b, sym.Flops)
				})
			}
		}
	}
}
