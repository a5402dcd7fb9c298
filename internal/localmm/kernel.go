package localmm

import (
	"fmt"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// Kernel selects the local multiply implementation used inside a SUMMA stage.
type Kernel int

const (
	// KernelHashUnsorted is the paper's new sort-free hash kernel (Sec.
	// IV-D, "unsorted-hash"): neither operand needs sorted columns and the
	// product's columns are unsorted.
	KernelHashUnsorted Kernel = iota
	// KernelHashSorted is the hash kernel with per-column output sorting, as
	// hash kernels were used before the sort-free observation.
	KernelHashSorted
)

// sorts reports whether the kernel's output columns are sorted.
func (k Kernel) sorts() bool { return k != KernelHashUnsorted }

// String names the kernel for reports.
func (k Kernel) String() string {
	switch k {
	case KernelHashUnsorted:
		return "unsorted-hash"
	case KernelHashSorted:
		return "sorted-hash"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Merger names the merging implementation of Merge-Layer and Merge-Fiber.
// There is one: the paper's sort-free hash merge. The type stays because
// the wall-clock benchmark's serial replay passes a merger to MergeMat and
// prices it by this name; it goes once that replay stops naming one.
type Merger int

// MergerHash is the paper's sort-free hash merge (Sec. IV-D,
// "unsorted-hash-merge"): unsorted inputs, unsorted output unless a sorted
// one is asked for (Merge-Fiber's is; Merge-Layer's is not).
const MergerHash Merger = 0

// String names the merger for reports.
func (m Merger) String() string {
	if m == MergerHash {
		return "hash-merge"
	}
	return fmt.Sprintf("Merger(%d)", int(m))
}

// Multiply is the serial reference SpGEMM used to verify distributed results:
// hash kernel with sorted output.
func Multiply(a, b *spmat.CSC, sr *semiring.Semiring) *spmat.CSC {
	return ParallelSpGEMM(KernelHashSorted, a, b, sr, 1)
}
