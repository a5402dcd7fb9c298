// Benchmarks regenerating the paper's evaluation artifacts: one benchmark per
// table and figure (BenchmarkFigNN / BenchmarkTableNN run the corresponding
// experiment at tiny scale and report its key metric), plus ablation
// micro-benchmarks for the design choices DESIGN.md calls out (kernel
// generations, merge strategy, batch splitting, hash sizing).
//
// Run with: go test -bench=. -benchmem
package spgemm_test

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"testing"

	spgemm "repro"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/semiring"
	"repro/internal/service"
	"repro/internal/spmat"
)

// benchExperiment runs a registered experiment end to end at tiny scale.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.RunOpts{Scale: experiments.ScaleTiny, Machine: costmodel.CoriKNL()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per evaluation artifact.

func BenchmarkTable02CommComplexity(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkTable03CompComplexity(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable05MatrixStats(b *testing.B)       { benchExperiment(b, "table5") }
func BenchmarkTable06LayerBatchImpact(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkTable07KernelGenerations(b *testing.B) { benchExperiment(b, "table7") }
func BenchmarkFig03HipMCLIterations(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig04LayerBatchSweep(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig05ABcastVsLayers(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig06StrongScalingSmall(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig07StrongScalingBig(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig08SymbolicStep(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig09ParallelEfficiency(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10AATMetaclust(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig11AATRiceKmers(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkFig12HyperThreading(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13KNLvsHaswell(b *testing.B)        { benchExperiment(b, "fig13") }
func BenchmarkFig14SmallMatrixLowProc(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15KernelAblation(b *testing.B)      { benchExperiment(b, "fig15") }
func BenchmarkPlannerVsOracle(b *testing.B)          { benchExperiment(b, "planner") }

// --- Ablation 1: local SpGEMM kernel generations (Fig 15 / Table VII). ---

func benchKernel(b *testing.B, k localmm.Kernel) {
	b.Helper()
	a := genmat.ProteinSimilarity(10, 8, 7)
	sr := semiring.PlusTimes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localmm.ParallelSpGEMM(k, a, a, sr, 1)
	}
	b.ReportMetric(float64(localmm.Flops(a, a)), "flops/op")
}

func BenchmarkKernelHashUnsorted(b *testing.B) { benchKernel(b, localmm.KernelHashUnsorted) }
func BenchmarkKernelHashSorted(b *testing.B)   { benchKernel(b, localmm.KernelHashSorted) }
func BenchmarkKernelHeap(b *testing.B)         { benchKernel(b, localmm.KernelHeap) }
func BenchmarkKernelHybrid(b *testing.B)       { benchKernel(b, localmm.KernelHybrid) }

// --- Ablation 1b: thread sweep of the one-pass parallel hash kernel
// (Sec. IV-D runs 16 threads per process; on a multi-core runner threads=8
// should beat threads=1 by well over 1.5x on this workload). ---

func BenchmarkHashSpGEMMParallel(b *testing.B) {
	a := genmat.ProteinSimilarity(11, 8, 7)
	sr := semiring.PlusTimes()
	flops := float64(localmm.Flops(a, a))
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.ReportMetric(flops, "flops/op")
			for i := 0; i < b.N; i++ {
				localmm.ParallelSpGEMM(localmm.KernelHashUnsorted, a, a, sr, threads)
			}
		})
	}
}

// --- Ablation 2: merge algorithms on sorted vs unsorted inputs. ---

func mergeInputs(sorted bool) []spmat.Matrix {
	a := genmat.ProteinSimilarity(9, 8, 8)
	sr := semiring.PlusTimes()
	mats := make([]spmat.Matrix, 4)
	for i := range mats {
		s := genmat.Permutation(a.Rows, int64(i+1))
		if sorted {
			mats[i] = localmm.Multiply(a, s, sr)
		} else {
			mats[i] = localmm.ParallelSpGEMM(localmm.KernelHashUnsorted, a, s, sr, 1)
		}
	}
	return mats
}

func BenchmarkMergeHashUnsortedInputs(b *testing.B) {
	mats := mergeInputs(false)
	sr := semiring.PlusTimes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localmm.MergeMat(localmm.MergerHash, mats, sr, false, 1)
	}
}

func BenchmarkMergeHashSortedOutput(b *testing.B) {
	mats := mergeInputs(false)
	sr := semiring.PlusTimes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localmm.MergeMat(localmm.MergerHash, mats, sr, true, 1)
	}
}

func BenchmarkMergeHeapUnsortedInputs(b *testing.B) {
	// The previous pipeline pays the sort inside the merge.
	mats := mergeInputs(false)
	sr := semiring.PlusTimes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localmm.MergeMat(localmm.MergerHeap, mats, sr, true, 1)
	}
}

func BenchmarkMergeHeapSortedInputs(b *testing.B) {
	mats := mergeInputs(true)
	sr := semiring.PlusTimes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localmm.MergeMat(localmm.MergerHeap, mats, sr, true, 1)
	}
}

// --- Ablation 3: merging per stage vs after all stages (Sec. III-A). ---

func BenchmarkMergeOnceAfterAllStages(b *testing.B) {
	a := genmat.ProteinSimilarity(9, 8, 9)
	sr := semiring.PlusTimes()
	stages := spmat.ColSplit(a, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := make([]spmat.Matrix, len(stages))
		for s, piece := range stages {
			parts[s] = localmm.ParallelSpGEMM(localmm.KernelHashUnsorted, piece, spmat.RowRange(a, int32(s)*a.Rows/4, (int32(s)+1)*a.Rows/4), sr, 1)
		}
		localmm.MergeMat(localmm.MergerHash, parts, sr, false, 1)
	}
}

func BenchmarkMergeIncrementallyPerStage(b *testing.B) {
	a := genmat.ProteinSimilarity(9, 8, 9)
	sr := semiring.PlusTimes()
	stages := spmat.ColSplit(a, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc spmat.Matrix
		for s, piece := range stages {
			prod := localmm.ParallelSpGEMM(localmm.KernelHashUnsorted, piece, spmat.RowRange(a, int32(s)*a.Rows/4, (int32(s)+1)*a.Rows/4), sr, 1)
			if acc == nil {
				acc = prod
			} else {
				acc = localmm.MergeMat(localmm.MergerHash, []spmat.Matrix{acc, prod}, sr, false, 1)
			}
		}
	}
}

// --- Ablation 4: block vs block-cyclic batch splitting (Sec. IV-B). ---

func BenchmarkBatchSplitCyclic(b *testing.B) {
	a := genmat.ProteinSimilarity(10, 8, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmat.ColSplitCyclic(a, 8, a.Cols/(8*4))
	}
}

func BenchmarkBatchSplitBlock(b *testing.B) {
	a := genmat.ProteinSimilarity(10, 8, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmat.ColSplit(a, 8)
	}
}

// --- Ablation 5: symbolic estimate vs numeric multiply cost (Fig 8). ---

func BenchmarkSymbolicEstimate(b *testing.B) {
	a := genmat.ProteinSimilarity(10, 8, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localmm.SymbolicSpGEMM(a, a)
	}
}

func BenchmarkNumericMultiply(b *testing.B) {
	a := genmat.ProteinSimilarity(10, 8, 11)
	sr := semiring.PlusTimes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localmm.ParallelSpGEMM(localmm.KernelHashUnsorted, a, a, sr, 1)
	}
}

// --- Ablation 6: distributed multiply across layer counts. ---

func benchDistributed(b *testing.B, p, l, batches int) {
	b.Helper()
	a := genmat.ProteinSimilarity(9, 8, 12)
	cluster := spgemm.NewCluster(p, l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cluster.Multiply(a, a, spgemm.Options{Batches: batches}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributed2D_P16(b *testing.B)        { benchDistributed(b, 16, 1, 1) }
func BenchmarkDistributed3D_P16L4(b *testing.B)      { benchDistributed(b, 16, 4, 1) }
func BenchmarkDistributedBatched_P16L4(b *testing.B) { benchDistributed(b, 16, 4, 4) }

// --- Ablation: pipelined vs staged SUMMA schedule. The pipelined schedule
// posts stage s+1's broadcasts before stage s's local multiply, so part of
// the modeled broadcast cost hides behind measured compute. The reported
// metrics expose the overlap: hidden-comm-s must be > 0 with the pipeline on
// (stage s+1's broadcasts demonstrably issued before stage s's multiply
// completed) and 0 with it off, while model-total-s — the paper's
// critical-path estimate — shrinks by exactly the hidden share. ---

func benchPipeline(b *testing.B, pipeline bool) {
	b.Helper()
	a := genmat.ProteinSimilarity(9, 8, 12)
	cluster := spgemm.NewCluster(16, 4)
	opts := spgemm.Options{Batches: 2, MeasureSymbolic: true, Pipeline: pipeline}
	var total, hidden float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := cluster.Multiply(a, a, opts)
		if err != nil {
			b.Fatal(err)
		}
		total += stats.TotalSeconds
		hidden += stats.HiddenCommSeconds
	}
	b.ReportMetric(total/float64(b.N), "model-total-s")
	b.ReportMetric(hidden/float64(b.N), "hidden-comm-s")
}

func BenchmarkSUMMAStaged(b *testing.B)    { benchPipeline(b, false) }
func BenchmarkSUMMAPipelined(b *testing.B) { benchPipeline(b, true) }

// --- Engine shapes: one distributed multiply with the generator parameters,
// grid and options of two bench/ workloads (copied from bench/README.md), so a
// workload's shape can be timed, allocation-counted and profiled from the root
// module (`make bench-engine`, `make profile-engine SHAPE=kmer-hyper`)
// without touching bench/. kmer-hyper is the shape where the engine around
// the kernels is the operation; protein-batched is the one where the kernels
// are. Before it is timed, each shape's product is held to the serial
// localmm.MulMat of the unsplit operands by shape and nonzero count — two
// untimed runs that also fill the kernels' scratch free list. The third entry,
// mcl-service, is the shape of the bench/ workload of that name where the
// engine is not the operation: one Markov-clustering expansion A·A as a client
// of the daemon runs it (service.Client.MultiplyMatrices against
// service.Handler behind httptest) — upload, cold plan, multiply, download.
// The fourth, resident-warm, is the daemon's read path as that workload loads
// it: two concurrent clients, four warm-plan products each over resident
// operands, in process (service.Service.Multiply). ---

func BenchmarkEngineShapes(b *testing.B) {
	shapes := []struct {
		name          string
		operands      func() (a, bm *spmat.CSC)
		p, l, threads int
		// budgeted: MemBytes = 24·(2·nnz(A)+nnz(C))/3, so the symbolic step
		// must batch, and batches are consumed by a hook and dropped
		// (core.MultiplyDiscard). Otherwise one batch, assembled.
		budgeted bool
	}{
		{"kmer-hyper", func() (a, bm *spmat.CSC) {
			a = genmat.Kmer(genmat.KmerConfig{Reads: 4096, Kmers: 262144, KmersPerRead: 24, Overlap: 0.08, Seed: 1})
			return a, spmat.Transpose(a)
		}, 64, 16, 1, false},
		{"protein-batched", func() (a, bm *spmat.CSC) {
			a = genmat.SymmetricPermute(genmat.ProteinSimilarity(11, 12, 1), 1)
			return a, a
		}, 16, 4, 2, true},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			a, bm := sh.operands()
			want := localmm.MulMat(localmm.KernelHashUnsorted, a, bm, semiring.PlusTimes(), 1)
			rc := core.RunConfig{P: sh.p, L: sh.l, Cost: costmodel.CoriKNL().Cost(), Opts: core.Options{Threads: sh.threads}}
			if sh.budgeted {
				rc.Opts.MemBytes = 24 * (2*a.NNZ() + want.NNZ()) / 3
			} else {
				rc.Opts.ForceBatches = 1
			}
			// run returns the product's nonzero count: of the assembled C, or
			// summed by the per-rank hooks over the batches they were shown.
			run := func() int64 {
				if !sh.budgeted {
					c, _, _, err := core.Multiply(a, bm, rc, nil)
					if err != nil {
						b.Fatal(err)
					}
					if wr, wc := want.Dims(); c.Rows != wr || c.Cols != wc {
						b.Fatalf("product is %v, serial multiply gives %dx%d", c, wr, wc)
					}
					return c.NNZ()
				}
				seen := make([]int64, rc.P)
				_, _, err := core.MultiplyDiscard(a, bm, rc, func(rank int) core.BatchHook {
					return func(_ int, _ []int32, c *spmat.CSC) *spmat.CSC {
						seen[rank] += c.NNZ()
						return nil
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				var nnz int64
				for _, n := range seen {
					nnz += n
				}
				return nnz
			}
			for warm := 0; warm < 2; warm++ {
				if got := run(); got != want.NNZ() {
					b.Fatalf("product has %d nonzeros, serial multiply gives %d", got, want.NNZ())
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(localmm.Flops(a, bm)), "flops/op")
		})
	}

	// mcl-service: 16 ranks, one thread, a budget of 24·flops/4 as in bench/.
	// Every iteration changes one value, so the operand has a content name
	// the daemon has not seen: it is uploaded and its plan is cold, as each
	// expansion of a clustering is.
	b.Run("mcl-service", func(b *testing.B) {
		a := genmat.SymmetricPermute(genmat.ProteinSimilarity(10, 8, 1), 1)
		want := localmm.MulMat(localmm.KernelHashUnsorted, a, a, semiring.PlusTimes(), 1)
		flops := localmm.Flops(a, a)
		svc, err := service.New(service.Config{P: 16, Threads: 1, MemBytes: 24 * flops / 4})
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(service.Handler(svc))
		defer srv.Close()
		cl := &service.Client{Base: srv.URL, HTTP: srv.Client()}
		run := func() *spmat.CSC {
			a.Val[0] = math.Nextafter(a.Val[0], math.Inf(1))
			c, err := cl.MultiplyMatrices(a, a, "plus-times")
			if err != nil {
				b.Fatal(err)
			}
			return c
		}
		for warm := 0; warm < 2; warm++ {
			wr, wc := want.Dims()
			if c := run(); c.Rows != wr || c.Cols != wc || c.NNZ() != want.NNZ() {
				b.Fatalf("product is %v, serial multiply gives %dx%d with %d nonzeros", c, wr, wc, want.NNZ())
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		b.StopTimer()
		if st := svc.Stats(); st.Probes != int64(b.N)+2 || st.Requests["load"] != int64(b.N)+2 {
			b.Fatalf("%d probes and %d loads over %d expansions: the plan was not cold or the operand not sent once", st.Probes, st.Requests["load"], b.N+2)
		}
		b.ReportMetric(float64(flops), "flops/op")
	})

	// resident-warm: 16 ranks, one thread, three operands the daemon
	// generated itself, a budget of 4·24·flops(rmat, rmat) shared by two
	// closed-loop clients that each ask for the four products, starting on
	// different pairs — as in bench/. No HTTP: the read path's engine share
	// is the point here, and Service.Multiply is what a request runs.
	b.Run("resident-warm", func(b *testing.B) {
		specs := map[string]service.GeneratorSpec{
			"rmat":  {Kind: "rmat", Scale: 11, EdgeFactor: 8, Seed: 1},
			"er":    {Kind: "er", N: 2048, EdgeFactor: 8, Seed: 2},
			"hyper": {Kind: "hypersparse", N: 16384, Cols: 16384, NnzPerCol: 2, Seed: 3},
		}
		mats := map[string]*spmat.CSC{}
		for name, g := range specs {
			m, err := g.Generate()
			if err != nil {
				b.Fatal(err)
			}
			mats[name] = m
		}
		svc, err := service.New(service.Config{P: 16, Threads: 1, MemBytes: 4 * 24 * localmm.Flops(mats["rmat"], mats["rmat"])})
		if err != nil {
			b.Fatal(err)
		}
		for name, m := range mats {
			if _, _, err := svc.Load(name, m); err != nil {
				b.Fatal(err)
			}
		}
		pairs := [4][2]string{{"rmat", "rmat"}, {"er", "er"}, {"hyper", "hyper"}, {"rmat", "er"}}
		var wantNNZ [4]int64
		var flops int64
		for x, pr := range pairs {
			wantNNZ[x] = localmm.MulMat(localmm.KernelHashUnsorted, mats[pr[0]], mats[pr[1]], semiring.PlusTimes(), 1).NNZ()
			flops += localmm.Flops(mats[pr[0]], mats[pr[1]])
		}
		// round is one operation of each client; the first failure is kept.
		round := func() error {
			errs := make(chan error, 2)
			for client := 0; client < 2; client++ {
				go func() {
					for x := range pairs {
						at := (2*client + x) % len(pairs)
						res, err := svc.Multiply(service.MultiplyRequest{A: pairs[at][0], B: pairs[at][1]})
						if err == nil && res.NNZ != wantNNZ[at] {
							err = fmt.Errorf("%s*%s has %d nonzeros, serial multiply gives %d", pairs[at][0], pairs[at][1], res.NNZ, wantNNZ[at])
						}
						if err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}()
			}
			return errors.Join(<-errs, <-errs)
		}
		for warm := 0; warm < 2; warm++ { // the first round plans the four pairs
			if err := round(); err != nil {
				b.Fatal(err)
			}
		}
		probes := svc.Stats().Probes
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := round(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := svc.Stats(); st.Probes != probes || st.JobFailures != 0 {
			b.Fatalf("%d probes and %d failed jobs in the timed rounds: the plan cache was not warm", st.Probes-probes, st.JobFailures)
		}
		b.ReportMetric(float64(2*flops), "flops/op")
	})
}

// --- End-to-end application benchmarks. ---

func BenchmarkAppTriangleCount(b *testing.B) {
	adj := genmat.RMAT(genmat.RMATConfig{Scale: 9, EdgeFactor: 8, Symmetrize: true, Seed: 13})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spgemm.TriangleCount(adj, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppOverlapPairs(b *testing.B) {
	reads := spgemm.RandomKmerMatrix(256, 8192, 16, 0.3, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spgemm.OverlapPairs(reads, 2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppMarkovCluster(b *testing.B) {
	a := spgemm.RandomProteinNetwork(8, 8, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spgemm.MarkovCluster(a, spgemm.MCLConfig{MaxIter: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
