package costmodel

// Kernel and merger cost table: a wall-second prior for every local-multiply
// kernel and merge strategy, as a linear model over the two quantities the
// meters count exactly — useful work (flops for kernels, merged entries for
// mergers) and scanned columns (the per-column setup each algorithm pays):
//
//	T(kernel) = SecPerUnit·units + SecPerCol·cols
//
// The constants encode the regimes of Azad et al. (arXiv 1510.00844): hash
// kernels pay a large per-column setup (table init/reset) but stream flops
// near memory speed, heap kernels pay almost nothing per column but
// log-factor work per flop; their ratio puts the heap↔hash crossover at
// (200−8)/(4−1) = 64 flops per column, the hybrid kernel's per-column
// threshold (localmm.hybridHeapThreshold). Nothing executes by these numbers:
// every plan runs the unsorted-hash multiply and the hash merge, which beat
// heap and hybrid in every measured regime (BENCH_kernels.json). The table is
// what the benchmark's replay reports its multiply and merge residuals
// against (bench/: costmodel.multiply_residual, costmodel.merge_residual);
// refitting the coefficients from that replay data is the open work (ROADMAP
// item 3).

// Kernel and merger names priced by the table. They match the localmm
// String() spellings, so a run's kernel prices by its own name.
const (
	KernelNameHash       = "unsorted-hash"
	KernelNameHashSorted = "sorted-hash"
	KernelNameHeap       = "heap"
	KernelNameHybrid     = "hybrid"
	MergerNameHash       = "hash-merge"
	MergerNameHeap       = "heap-merge"
)

// KernelCoeffs is the linear cost model of one kernel or merger.
type KernelCoeffs struct {
	// SecPerUnit is the marginal cost of one unit of useful work: a flop
	// for multiply kernels, a merged entry for mergers.
	SecPerUnit float64
	// SecPerCol is the per-scanned-column setup cost.
	SecPerCol float64
}

// hybridDispatchSecPerCol is the per-column regime-dispatch overhead added to
// the hybrid kernel's prediction on top of the per-column best of heap and
// hash. It keeps the hybrid from dominating trivially: on a block whose
// columns all sit in one regime, the single-regime kernel wins by exactly
// this margin.
const hybridDispatchSecPerCol = 0.2e-9

// defaultKernelCoeffs is the prior.
var defaultKernelCoeffs = map[string]KernelCoeffs{
	KernelNameHash:       {SecPerUnit: 1.0e-9, SecPerCol: 200e-9},
	KernelNameHashSorted: {SecPerUnit: 1.6e-9, SecPerCol: 200e-9},
	KernelNameHeap:       {SecPerUnit: 4.0e-9, SecPerCol: 8e-9},
	MergerNameHash:       {SecPerUnit: 1.2e-9, SecPerCol: 150e-9},
	MergerNameHeap:       {SecPerUnit: 3.0e-9, SecPerCol: 10e-9},
}

// KernelTable prices a kernel or merger by name from the prior. It holds
// nothing of its own — a nil table predicts the same — and is the handle a
// refit table would fill.
type KernelTable struct{}

// DefaultKernelTable returns the table of the default coefficients.
func DefaultKernelTable() *KernelTable { return &KernelTable{} }

// Predict returns the modeled seconds for running name over units of work
// and cols scanned columns. The hybrid kernel is derived: the better of heap
// and hash plus the dispatch overhead — its true advantage (per-column
// regime mixing) is invisible to block-level aggregates.
func (t *KernelTable) Predict(name string, units, cols int64) float64 {
	if name == KernelNameHybrid {
		best := min(t.Predict(KernelNameHeap, units, cols), t.Predict(KernelNameHash, units, cols))
		return best + hybridDispatchSecPerCol*float64(cols)
	}
	c := defaultKernelCoeffs[name]
	return c.SecPerUnit*float64(units) + c.SecPerCol*float64(cols)
}
