package localmm

import (
	"fmt"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// Kernel selects the local multiply implementation used inside a SUMMA stage.
type Kernel int

const (
	// KernelHashUnsorted is the paper's new sort-free hash kernel.
	KernelHashUnsorted Kernel = iota
	// KernelHashSorted is the hash kernel with per-column output sorting.
	KernelHashSorted
	// KernelHeap is the previous heap-based kernel [13]; output sorted.
	KernelHeap
	// KernelHybrid is the previous hybrid heap/hash kernel [25]; output sorted.
	KernelHybrid
)

// String names the kernel for reports.
func (k Kernel) String() string {
	switch k {
	case KernelHashUnsorted:
		return "unsorted-hash"
	case KernelHashSorted:
		return "sorted-hash"
	case KernelHeap:
		return "heap"
	case KernelHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Func returns the kernel entry point. The returned function multiplies with
// threads worker goroutines via the one-pass plan of parallel.go; threads
// <= 1 runs it on the caller's goroutine, which is the serial kernel.
func (k Kernel) Func() func(a, b *spmat.CSC, sr *semiring.Semiring, threads int) *spmat.CSC {
	return func(a, b *spmat.CSC, sr *semiring.Semiring, threads int) *spmat.CSC {
		return ParallelSpGEMM(k, a, b, sr, threads)
	}
}

// ParseKernel parses a -kernel flag value.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "hash", "unsorted-hash", "":
		return KernelHashUnsorted, nil
	case "sorted-hash":
		return KernelHashSorted, nil
	case "heap":
		return KernelHeap, nil
	case "hybrid":
		return KernelHybrid, nil
	}
	return 0, fmt.Errorf("localmm: unknown kernel %q (want hash | sorted-hash | heap | hybrid)", s)
}

// Merger selects the merging implementation used by Merge-Layer and
// Merge-Fiber.
type Merger int

const (
	// MergerHash is the paper's new sort-free hash merge.
	MergerHash Merger = iota
	// MergerHeap is the previous heap merge [13] (always sorted output).
	MergerHeap
)

// String names the merger for reports.
func (m Merger) String() string {
	switch m {
	case MergerHash:
		return "hash-merge"
	case MergerHeap:
		return "heap-merge"
	default:
		return fmt.Sprintf("Merger(%d)", int(m))
	}
}

// Merge runs the selected merging algorithm with threads worker goroutines
// (threads <= 1 is serial). sortOutput only affects MergerHash; the heap
// merge always emits sorted columns.
func (m Merger) Merge(mats []*spmat.CSC, sr *semiring.Semiring, sortOutput bool, threads int) *spmat.CSC {
	return ParallelMerge(m, mats, sr, sortOutput, threads)
}

// ParseMerger parses a -merger flag value.
func ParseMerger(s string) (Merger, error) {
	switch s {
	case "hash", "hash-merge", "":
		return MergerHash, nil
	case "heap", "heap-merge":
		return MergerHeap, nil
	}
	return 0, fmt.Errorf("localmm: unknown merger %q (want hash | heap)", s)
}

// Multiply is the serial reference SpGEMM used to verify distributed results:
// hash kernel with sorted output.
func Multiply(a, b *spmat.CSC, sr *semiring.Semiring) *spmat.CSC {
	return HashSpGEMMSorted(a, b, sr)
}
