package core

import (
	"testing"

	"repro/internal/localmm"
	"repro/internal/planner"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// TestBatchedSUMMA3DWithThreadsRace runs a small end-to-end BatchedSUMMA3D
// with Threads > 1 so `go test -race -cpu 1,4 ./internal/core` (make race)
// exercises ranks computing side by side under the compute gate, each
// allowed extra workers. These operands are far below localmm's worker
// floor, so no section takes a second core or starts a worker;
// TestLoneRankRunsItsWorkers and TestHostCoresChangeOnlyWallClock carry
// stages heavy enough that idle cores become running workers. Guarded by
// -short so the default suite stays fast.
func TestBatchedSUMMA3DWithThreadsRace(t *testing.T) {
	if testing.Short() {
		t.Skip("race workout skipped in -short mode")
	}
	a := randomMat(t, 64, 64, 600, 41)
	b := randomMat(t, 64, 64, 600, 42)
	want := localmm.Multiply(a, b, semiring.PlusTimes())
	for _, cfg := range []struct{ p, l, b, threads int }{
		{4, 1, 1, 4},
		{8, 2, 2, 4},
		{16, 4, 3, 8},
	} {
		got, _, _ := runDistributed(t, cfg.p, cfg.l, a, b,
			Options{ForceBatches: cfg.b, Threads: cfg.threads}, nil)
		if !spmat.Equal(got, want) {
			t.Errorf("p=%d l=%d b=%d threads=%d: distributed result differs from serial",
				cfg.p, cfg.l, cfg.b, cfg.threads)
		}
	}
	// The previous-generation kernel/merger pair under threads, too.
	got, _, _ := runDistributed(t, 4, 1, a, b, Options{
		ForceBatches: 2, Threads: 4,
		Kernel: localmm.KernelHeap, Merger: localmm.MergerHeap,
	}, nil)
	if !spmat.Equal(got, want) {
		t.Error("heap kernel/merger with threads: distributed result differs")
	}
}

// TestPipelinedSUMMARace layers the broadcast/compute pipeline on top of
// ranks computing side by side with Threads > 1, with the symbolic step in
// the loop — the schedule's full concurrency under the race detector (the
// workers themselves need heavier stages; see above). Guarded by -short like
// the other workout.
func TestPipelinedSUMMARace(t *testing.T) {
	if testing.Short() {
		t.Skip("race workout skipped in -short mode")
	}
	a := randomMat(t, 64, 64, 600, 43)
	b := randomMat(t, 64, 64, 600, 44)
	want := localmm.Multiply(a, b, semiring.PlusTimes())
	for _, cfg := range []struct{ p, l, b, threads int }{
		{4, 1, 2, 1},
		{8, 2, 2, 4},
		{8, 2, 3, 4},
		{16, 4, 3, 8},
	} {
		got, _, _ := runDistributed(t, cfg.p, cfg.l, a, b, Options{
			ForceBatches: cfg.b, RunSymbolic: true,
			Threads: cfg.threads, Pipeline: true,
		}, nil)
		if !spmat.Equal(got, want) {
			t.Errorf("p=%d l=%d b=%d threads=%d pipelined: result differs from serial",
				cfg.p, cfg.l, cfg.b, cfg.threads)
		}
	}
}

// TestDenseSchedulesWithThreadsRace runs the 1.5D ColA and InnerABC
// schedules with multithreaded SpMM kernels and the pipelined shift overlap,
// so `go test -race ./internal/core` exercises rank concurrency, the posted
// IshiftStart exchanges, and intra-rank column-partition workers together.
// Guarded by -short like the SUMMA race workout.
func TestDenseSchedulesWithThreadsRace(t *testing.T) {
	if testing.Short() {
		t.Skip("race workout skipped in -short mode")
	}
	a := randomMat(t, 96, 96, 900, 51)
	b := randomDense(t, 96, 16, 52)
	want := localmm.SpMMSerial(a, b)
	for _, algo := range []planner.Algo{planner.AlgoColA, planner.AlgoInnerABC} {
		for _, cfg := range []struct {
			p, c, b, threads int
			pipeline         bool
		}{
			{p: 4, c: 2, b: 1, threads: 4},
			{p: 8, c: 2, b: 2, threads: 4, pipeline: true},
			{p: 16, c: 4, b: 3, threads: 8, pipeline: true},
		} {
			got, _ := runDense(t, a, b, RunConfig{P: cfg.p, Cost: testCM, Opts: Options{Threads: cfg.threads}},
				planner.DenseConfig{Algo: algo, C: cfg.c, B: cfg.b, Pipeline: cfg.pipeline})
			if !spmat.DenseEqual(got, want) {
				t.Errorf("%v p=%d c=%d b=%d threads=%d pipe=%v: differs from serial",
					algo, cfg.p, cfg.c, cfg.b, cfg.threads, cfg.pipeline)
			}
		}
	}
}
