// The root module's one benchmark: whole distributed multiplies on the shapes
// of the bench/ workloads. Every other benchmark lives beside the package it
// measures.
package spgemm_test

import (
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/semiring"
	"repro/internal/service"
	"repro/internal/spmat"
)

// BenchmarkEngineShapes runs one distributed multiply with the generator
// parameters, grid and options of two bench/ workloads (copied from
// bench/README.md), so a workload's shape can be timed, allocation-counted and
// profiled from the root module (`make bench-engine`, `make profile-engine
// SHAPE=kmer-hyper`) without touching bench/. kmer-hyper is the shape where
// the engine around the kernels is the operation; protein-batched is the one
// where the kernels are. Before it is timed, each shape's product is held to
// the serial localmm.MulMat of the unsplit operands by shape and nonzero count
// — two untimed runs that also fill the kernels' scratch free list. The third
// entry, mcl-service, is the shape of the bench/ workload of that name where
// the engine is not the operation: one Markov-clustering expansion A·A as a
// client of the daemon runs it (service.Client.MultiplyMatrices against
// service.Handler behind httptest) — upload, cold plan, multiply, download.
// The fourth, resident-warm, is the daemon's read path as that workload loads
// it: two concurrent clients, four warm-plan products each over resident
// operands, in process (service.Service.Multiply).
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
