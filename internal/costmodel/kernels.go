package costmodel

// Kernel and merge cost table: a wall-second prior for the engine's two
// local-multiply kernels and its merge, as a linear model over the two
// quantities the meters count exactly — useful work (flops for kernels,
// merged entries for the merge) and scanned columns (the per-column setup
// each pays):
//
//	T(kernel) = SecPerUnit·units + SecPerCol·cols
//
// The constants encode the hash regime of Azad et al. (arXiv 1510.00844): a
// large per-column setup (table init/reset), flops streamed near memory
// speed. Nothing executes by these numbers: every plan runs the
// unsorted-hash multiply and the hash merge. The table is what the
// benchmark's replay reports its multiply and merge residuals against
// (bench/: costmodel.multiply_residual, costmodel.merge_residual); refitting
// the coefficients from that replay data is the open work (ROADMAP item 3).

// Kernel and merge names priced by the table. They match the localmm
// String() spellings, so a run's kernel prices by its own name.
const (
	KernelNameHash       = "unsorted-hash"
	KernelNameHashSorted = "sorted-hash"
	MergerNameHash       = "hash-merge"
)

// KernelCoeffs is the linear cost model of one kernel or the merge.
type KernelCoeffs struct {
	// SecPerUnit is the marginal cost of one unit of useful work: a flop
	// for multiply kernels, a merged entry for the merge.
	SecPerUnit float64
	// SecPerCol is the per-scanned-column setup cost.
	SecPerCol float64
}

// defaultKernelCoeffs is the prior.
var defaultKernelCoeffs = map[string]KernelCoeffs{
	KernelNameHash:       {SecPerUnit: 1.0e-9, SecPerCol: 200e-9},
	KernelNameHashSorted: {SecPerUnit: 1.6e-9, SecPerCol: 200e-9},
	MergerNameHash:       {SecPerUnit: 1.2e-9, SecPerCol: 150e-9},
}

// KernelTable prices a kernel or the merge by name from the prior. It holds
// nothing of its own — a nil table predicts the same — and is the handle a
// refit table would fill.
type KernelTable struct{}

// DefaultKernelTable returns the table of the default coefficients.
func DefaultKernelTable() *KernelTable { return &KernelTable{} }

// Predict returns the modeled seconds for running name over units of work
// and cols scanned columns.
func (t *KernelTable) Predict(name string, units, cols int64) float64 {
	c := defaultKernelCoeffs[name]
	return c.SecPerUnit*float64(units) + c.SecPerCol*float64(cols)
}
