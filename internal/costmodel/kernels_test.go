package costmodel

import (
	"math"
	"testing"
)

// TestKernelTableNilSafe: a nil table predicts from the defaults, exactly as
// DefaultKernelTable's does, for every name the benchmark's replay prices.
func TestKernelTableNilSafe(t *testing.T) {
	var nilT *KernelTable
	want := defaultKernelCoeffs[KernelNameHash]
	if got := nilT.Predict(KernelNameHash, 1000, 10); got != want.SecPerUnit*1000+want.SecPerCol*10 {
		t.Errorf("nil Predict = %v", got)
	}
	def := DefaultKernelTable()
	for _, name := range []string{KernelNameHash, KernelNameHashSorted, KernelNameHeap, KernelNameHybrid, MergerNameHash, MergerNameHeap} {
		got, want := nilT.Predict(name, 5000, 70), def.Predict(name, 5000, 70)
		if got != want || got <= 0 {
			t.Errorf("%s: nil table predicts %v, default table %v", name, got, want)
		}
	}
}

// TestKernelCrossover pins the prior's regime boundary: the heap and hash
// models meet at (200−8)/(4−1) = 64 flops per column, the same constant as
// the hybrid kernel's per-column threshold.
func TestKernelCrossover(t *testing.T) {
	kt := DefaultKernelTable()
	const cols = 1000
	if heap, hash := kt.Predict(KernelNameHeap, 63*cols, cols), kt.Predict(KernelNameHash, 63*cols, cols); heap >= hash {
		t.Errorf("below crossover heap %v is not under hash %v", heap, hash)
	}
	if heap, hash := kt.Predict(KernelNameHeap, 65*cols, cols), kt.Predict(KernelNameHash, 65*cols, cols); hash >= heap {
		t.Errorf("above crossover hash %v is not under heap %v", hash, heap)
	}
	// The hybrid can never beat both pure kernels on an aggregate: it carries
	// the better one's price plus the dispatch overhead.
	units, c := int64(64*cols), int64(cols)
	hy := kt.Predict(KernelNameHybrid, units, c)
	best := math.Min(kt.Predict(KernelNameHash, units, c), kt.Predict(KernelNameHeap, units, c))
	if hy <= best {
		t.Errorf("hybrid %v undercut the best pure kernel %v", hy, best)
	}
}
