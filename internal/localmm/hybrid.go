package localmm

import (
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// hybridHeapThreshold is the per-column flop count below which the hybrid
// kernel prefers the heap: for short columns (low compression ratio) the heap
// beats hash-table setup, mirroring the policy of Nagasaka et al. [25].
const hybridHeapThreshold = 64

// HybridSpGEMM multiplies A·B with the prior state-of-the-art hybrid kernel
// [25]: per output column it chooses the heap (small flop count / low
// compression) or a hash table, and always sorts the finished column. This is
// the "previous hybrid" baseline the paper's unsorted-hash kernel is measured
// against (Sec. IV-D reports unsorted-hash 30–50% faster).
func HybridSpGEMM(a, b *spmat.CSC, sr *semiring.Semiring) *spmat.CSC {
	return ParallelSpGEMM(KernelHybrid, a, b, sr, 1)
}
