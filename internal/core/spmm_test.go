package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/localmm"
	"repro/internal/planner"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// randomDense builds a dense panel of small positive integers, so every
// product in the differential tests is exact in float64 and bit-identity is a
// meaningful assertion (same discipline as the sparse differential suite).
func randomDense(t testing.TB, rows, cols int32, seed int64) *spmat.DenseMat {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := spmat.NewDense(rows, cols)
	for i := range d.Val {
		d.Val[i] = float64(rng.Intn(9) + 1)
	}
	return d
}

func runDense(t testing.TB, a *spmat.CSC, b *spmat.DenseMat, rc RunConfig, cfg planner.DenseConfig) (*spmat.DenseMat, []*DenseResult) {
	t.Helper()
	got, results, _, err := MultiplyDense(a, b, rc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return got, results
}

// TestDenseAlgosBitIdentical is the 1.5D differential suite, the dense
// mirror of TestSparseCommModesBitIdentical: ColA and InnerABC must produce
// results bit-identical to the naive serial dense reference across grids,
// replication factors, batch counts, schedules, thread counts, and storage
// formats — and the fiber replicas of every panel must agree byte for byte.
func TestDenseAlgosBitIdentical(t *testing.T) {
	type workload struct {
		name string
		a    *spmat.CSC
		b    *spmat.DenseMat
	}
	workloads := []workload{
		{"square", randomMat(t, 60, 48, 500, 71), randomDense(t, 48, 10, 72)},
		{"hypersparse", randomMat(t, 40, 300, 150, 73), randomDense(t, 300, 7, 74)},
		{"tallskinny", randomMat(t, 120, 120, 700, 75), randomDense(t, 120, 4, 76)},
	}
	type cfg struct {
		p, c, b  int
		pipeline bool
		threads  int
		format   spmat.Format
	}
	cfgs := []cfg{
		{p: 1, c: 1, b: 1, threads: 1, format: spmat.FormatAuto},
		{p: 4, c: 1, b: 1, threads: 1, format: spmat.FormatAuto},
		{p: 4, c: 2, b: 1, threads: 1, format: spmat.FormatAuto},
		{p: 4, c: 2, b: 2, threads: 1, format: spmat.FormatCSC},
		{p: 8, c: 2, b: 1, threads: 4, format: spmat.FormatAuto},
		{p: 8, c: 2, b: 3, pipeline: true, threads: 1, format: spmat.FormatDCSC},
		{p: 9, c: 3, b: 2, threads: 1, format: spmat.FormatAuto},
		{p: 16, c: 2, b: 2, pipeline: true, threads: 2, format: spmat.FormatAuto},
		{p: 16, c: 4, b: 1, threads: 1, format: spmat.FormatAuto},
		{p: 16, c: 4, b: 2, pipeline: true, threads: 4, format: spmat.FormatDCSC},
		{p: 16, c: 1, b: 2, pipeline: true, threads: 1, format: spmat.FormatAuto},
	}
	for _, w := range workloads {
		want := localmm.SpMMSerial(w.a, w.b)
		for _, algo := range []planner.Algo{planner.AlgoColA, planner.AlgoInnerABC} {
			for _, c := range cfgs {
				rc := RunConfig{P: c.p, Cost: testCM, Opts: Options{Threads: c.threads, Format: c.format}}
				got, results := runDense(t, w.a, w.b, rc, planner.DenseConfig{Algo: algo, C: c.c, B: c.b, Pipeline: c.pipeline})
				if !spmat.DenseEqual(got, want) {
					t.Errorf("%s %v p=%d c=%d b=%d pipe=%v threads=%d fmt=%v: result differs from serial reference",
						w.name, algo, c.p, c.c, c.b, c.pipeline, c.threads, c.format)
					continue
				}
				// Fiber replicas must agree bit for bit with layer 0.
				s := c.p / c.c
				for k := 1; k < c.c; k++ {
					for j := 0; j < s; j++ {
						if !spmat.DenseEqual(results[k*s+j].C, results[j].C) {
							t.Errorf("%s %v p=%d c=%d: layer-%d panel %d differs from layer 0",
								w.name, algo, c.p, c.c, k, j)
						}
					}
				}
			}
		}
	}
}

// TestMultiplyDenseSUMMA: the densified SUMMA arm must agree with the serial
// dense reference exactly (integer-valued inputs make the sparse pipeline's
// different merge order immaterial).
func TestMultiplyDenseSUMMA(t *testing.T) {
	a := randomMat(t, 40, 32, 300, 81)
	b := randomDense(t, 32, 6, 82)
	want := localmm.SpMMSerial(a, b)
	got, results, sum, err := MultiplyDense(a, b, RunConfig{P: 4, Cost: testCM}, planner.DenseConfig{L: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.C != nil {
			t.Error("SUMMA arm must return nil per-rank dense panels")
		}
	}
	if sum == nil {
		t.Error("SUMMA arm must return a metering summary")
	}
	if !spmat.DenseEqual(got, want) {
		t.Error("SUMMA arm differs from serial reference")
	}
}

// TestMultiplyDenseBatchInvariance: with everything else fixed, the batch
// count and the pipeline knob must never change a single output bit.
func TestMultiplyDenseBatchInvariance(t *testing.T) {
	a := randomMat(t, 50, 64, 400, 91)
	b := randomDense(t, 64, 12, 92)
	for _, algo := range []planner.Algo{planner.AlgoColA, planner.AlgoInnerABC} {
		var ref *spmat.DenseMat
		for _, nb := range []int{1, 2, 3, 5} {
			for _, pipe := range []bool{false, true} {
				got, _ := runDense(t, a, b, RunConfig{P: 8, Cost: testCM},
					planner.DenseConfig{Algo: algo, C: 2, B: nb, Pipeline: pipe})
				if ref == nil {
					ref = got
					continue
				}
				if !spmat.DenseEqual(got, ref) {
					t.Errorf("%v b=%d pipe=%v: output changed", algo, nb, pipe)
				}
			}
		}
	}
}

// TestMultiplyDenseFlopsAndPeak: the per-rank LocalFlops must sum to exactly
// nnz(A)·d for either schedule (every nonzero meets every dense column once),
// and every rank must report a positive modeled peak.
func TestMultiplyDenseFlopsAndPeak(t *testing.T) {
	a := randomMat(t, 60, 48, 500, 71)
	b := randomDense(t, 48, 10, 72)
	want := a.NNZ() * int64(b.Cols)
	for _, algo := range []planner.Algo{planner.AlgoColA, planner.AlgoInnerABC} {
		_, results := runDense(t, a, b, RunConfig{P: 8, Cost: testCM}, planner.DenseConfig{Algo: algo, C: 2, B: 2})
		var flops int64
		for r, res := range results {
			flops += res.LocalFlops
			if res.PeakMemBytes <= 0 {
				t.Errorf("%v rank %d: peak %d", algo, r, res.PeakMemBytes)
			}
			if res.Batches != 2 {
				t.Errorf("%v rank %d: batches %d, want 2", algo, r, res.Batches)
			}
		}
		if flops != want {
			t.Errorf("%v: total flops %d, want %d", algo, flops, want)
		}
	}
}

// TestMultiplyDenseValidation: shape mismatches, non-plus-times semirings,
// and invalid replication factors must be rejected before any rank runs.
func TestMultiplyDenseValidation(t *testing.T) {
	a := randomMat(t, 10, 8, 20, 5)
	good := randomDense(t, 8, 3, 6)
	base := RunConfig{P: 4, Cost: testCM}
	cfg := planner.DenseConfig{Algo: planner.AlgoColA, C: 2}

	if _, _, _, err := MultiplyDense(a, randomDense(t, 9, 3, 7), base, cfg); err == nil {
		t.Error("dimension mismatch accepted")
	}

	rc := base
	rc.Opts.Semiring = semiring.MinPlus()
	if _, _, _, err := MultiplyDense(a, good, rc, cfg); err == nil || !strings.Contains(err.Error(), "plus-times") {
		t.Errorf("min-plus semiring accepted: %v", err)
	}

	bad := cfg
	bad.C = 3 // 3² ∤ 4
	if _, _, _, err := MultiplyDense(a, good, base, bad); err == nil {
		t.Error("invalid replication accepted")
	}
}

// TestSpMMMatchesSpGEMMThenDensify is an oracle that shares no code with the
// 1.5D ring: on integer operands, MultiplyDense(A, D) under every Algo equals
// the sparse product Multiply(A, sparse(D)) densified, bit for bit, against
// staged and pipelined SUMMA in every storage format. A third of D is zero, so
// its sparse form has empty columns and missing entries.
func TestSpMMMatchesSpGEMMThenDensify(t *testing.T) {
	a := randomMat(t, 60, 48, 500, 101)
	d := randomDense(t, 48, 10, 102)
	for i := range d.Val {
		if i%3 == 0 {
			d.Val[i] = 0
		}
	}
	for _, f := range []spmat.Format{spmat.FormatCSC, spmat.FormatDCSC, spmat.FormatAuto} {
		for _, pipe := range []bool{false, true} {
			opts := Options{Format: f, Pipeline: pipe, ForceBatches: 2}
			c, _, _, err := Multiply(a, d.ToCSC(), RunConfig{P: 8, L: 2, Cost: testCM, Opts: opts}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := spmat.DenseFromCSC(c)
			for _, algo := range planner.Algos {
				got, _ := runDense(t, a, d, RunConfig{P: 8, Cost: testCM, Opts: Options{Format: f}},
					planner.DenseConfig{Algo: algo, L: 2, C: 2, B: 2, Pipeline: pipe})
				if !spmat.DenseEqual(got, want) {
					t.Errorf("%v format %v pipeline %v: SpMM differs from the densified SpGEMM", algo, f, pipe)
				}
			}
		}
	}
}
