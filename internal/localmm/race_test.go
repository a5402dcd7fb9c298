package localmm

import (
	"sync"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// TestParallelKernelsRace drives every parallel kernel and merger at high
// thread counts, including several ParallelSpGEMM calls racing each other the
// way concurrent SUMMA ranks do, so `go test -race ./internal/localmm`
// exercises the worker pool, the shared output arrays, and the read-only
// operand sharing. Guarded by -short so the default suite stays fast.
func TestParallelKernelsRace(t *testing.T) {
	if testing.Short() {
		t.Skip("race workout skipped in -short mode")
	}
	sr := semiring.PlusTimes()
	a := randomMat(t, 300, 300, 4000, 31)
	b := randomMat(t, 300, 300, 4000, 32)
	want := Multiply(a, b, sr)

	for _, k := range allKernels {
		got := ParallelSpGEMM(k, a, b, sr, 8)
		if !spmat.Equal(got, want) {
			t.Errorf("kernel %v: wrong parallel product", k)
		}
	}

	mats := []*spmat.CSC{
		ParallelSpGEMM(KernelHashUnsorted, a, b, sr, 1),
		ParallelSpGEMM(KernelHashUnsorted, b, a, sr, 1),
		ParallelSpGEMM(KernelHashUnsorted, a, a, sr, 1),
	}
	for _, mg := range []Merger{MergerHash, MergerHeap} {
		if got := ParallelMerge(mg, mats, sr, true, 8); got.NNZ() == 0 {
			t.Errorf("merger %v: empty parallel merge", mg)
		}
	}

	// Concurrent multiplies over the same operands: ranks inside one
	// simulated MPI job share nothing but read-only inputs and the pooled
	// worker state.
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := ParallelSpGEMM(KernelHashUnsorted, a, b, sr, 4)
			if !spmat.Equal(got, want) {
				t.Error("concurrent parallel multiply diverged")
			}
		}()
	}
	wg.Wait()
}

// TestDCSCParallelKernelsRace is the doubly-compressed counterpart of
// TestParallelKernelsRace: the one-pass kernels and merges at high thread
// counts over hypersparse DCSC operands (shared read-only views, free-listed
// workers, chunks copied into disjoint ranges of the shared output), plus
// concurrent
// multiplies the way SUMMA ranks race. Run under `go test -race`.
func TestDCSCParallelKernelsRace(t *testing.T) {
	if testing.Short() {
		t.Skip("race workout skipped in -short mode")
	}
	sr := semiring.PlusTimes()
	ac := hyperMat(t, 200, 4096, 3000, 61)
	bc := hyperMat(t, 4096, 4096, 3000, 62)
	a, b := ac.ToDCSC(), bc.ToDCSC()
	want := Multiply(ac, bc, sr)

	for _, k := range allKernels {
		got := MulMat(k, a, b, sr, 8)
		if !spmat.Equal(got.ToCSC(), want) {
			t.Errorf("kernel %v: wrong DCSC parallel product", k)
		}
	}

	b2 := hyperMat(t, 4096, 4096, 2500, 63).ToDCSC()
	mats := []spmat.Matrix{
		MulMat(KernelHashUnsorted, a, b, sr, 8),
		MulMat(KernelHashUnsorted, a, b2, sr, 8),
	}
	for _, mg := range []Merger{MergerHash, MergerHeap} {
		if got := MergeMat(mg, mats, sr, true, 8); got.NNZ() == 0 {
			t.Errorf("merger %v: empty DCSC parallel merge", mg)
		}
	}

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := MulMat(KernelHashUnsorted, a, b, sr, 4)
			if !spmat.Equal(got.ToCSC(), want) {
				t.Error("concurrent DCSC parallel multiply diverged")
			}
			if SymbolicMat(a, b, 4) != want.NNZ() {
				t.Error("concurrent DCSC parallel symbolic diverged")
			}
		}()
	}
	wg.Wait()
}
