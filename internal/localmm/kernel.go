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
	// KernelHeap is the heap-based column kernel of the previous 3D SUMMA
	// work [13]. It needs sorted A columns — an unsorted A is sorted on a
	// copy and that cost is charged to the kernel, as in the original code —
	// and its output is sorted.
	KernelHeap
	// KernelHybrid is the previous state-of-the-art hybrid kernel [25]: per
	// output column the heap for small flop counts (hybridHeapThreshold),
	// else a hash table; output sorted. Sec. IV-D measures unsorted-hash
	// 30–50% faster.
	KernelHybrid
)

// hybridHeapThreshold is the per-column flop count below which the hybrid
// kernel prefers the heap: for short columns (low compression ratio) the heap
// beats hash-table setup, mirroring the policy of Nagasaka et al. [25].
const hybridHeapThreshold = 64

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

// Merger selects the merging implementation used by Merge-Layer and
// Merge-Fiber.
type Merger int

const (
	// MergerHash is the paper's new sort-free hash merge (Sec. IV-D,
	// "unsorted-hash-merge"): unsorted inputs, unsorted output unless a
	// sorted one is asked for (Merge-Fiber's is; Merge-Layer's is not).
	MergerHash Merger = iota
	// MergerHeap is the k-way heap merge of the previous 2D/3D SUMMA
	// implementations [30, 13]: unsorted inputs are sorted first, that cost
	// charged to the merge, and the output is always sorted.
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

// Multiply is the serial reference SpGEMM used to verify distributed results:
// hash kernel with sorted output.
func Multiply(a, b *spmat.CSC, sr *semiring.Semiring) *spmat.CSC {
	return ParallelSpGEMM(KernelHashSorted, a, b, sr, 1)
}
