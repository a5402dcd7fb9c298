package core

import (
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/planner"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// Step category names used with the per-rank meters. They match the paper's
// figure legends and are the planner's step names, so a prediction and a
// meter reading of the same step share one key.
const (
	StepSymbolic   = planner.StepSymbolic
	StepABcast     = planner.StepABcast
	StepBBcast     = planner.StepBBcast
	StepLocalMult  = planner.StepLocalMult
	StepMergeLayer = planner.StepMergeLayer
	StepAllToAll   = planner.StepAllToAll
	StepMergeFiber = planner.StepMergeFiber
)

// Auxiliary compute categories outside the paper's seven steps: the batch-
// piece extraction before each batch's SUMMA and the rank's final assembly
// step, charged the O(nnz) work of its output pieces (Result.Pieces, kept as
// they are). Both run through the overlap ledger (their measured compute is
// hiding credit for in-flight collectives — with Opts.Pipeline the t+1
// extraction runs while batch t+1's prefetched stage-0 broadcasts are already
// posted) but are deliberately not in Steps: the paper's stacked bars, the
// perf gate, and the planner's meter-exact predictions cover the seven
// presentation steps, and these host-side shares stay separately auditable.
const (
	StepExtract  = "Extract-B"
	StepAssemble = "Assemble-C"
)

// Hidden step categories used by the pipelined schedule (Options.Pipeline):
// the share of a stage broadcast's modeled cost that overlapped with the
// previous stage's local compute is charged here (as StepStats.HiddenSeconds,
// which critical-path totals exclude — hidden time ran concurrently with
// compute that is already counted) instead of the paper's step, so exposed
// and hidden communication stay separately auditable. They are deliberately
// not in Steps: the paper's stacked bars report exposed time per step, and
// aggregations over Steps see pipelining as the shorter exposed time it
// actually is.
const (
	StepABcastHidden   = "A-Broadcast-Hidden"
	StepBBcastHidden   = "B-Broadcast-Hidden"
	StepSymbolicHidden = "Symbolic-Hidden"
	StepAllToAllHidden = "AllToAll-Fiber-Hidden"
)

// HiddenSteps lists the overlap categories in presentation order.
var HiddenSteps = []string{StepSymbolicHidden, StepABcastHidden, StepBBcastHidden, StepAllToAllHidden}

// HiddenFor returns the hidden-overlap category paired with one of the
// paper's steps, or "" for steps that are never overlapped (compute steps
// hide communication; they are not hidden themselves).
func HiddenFor(step string) string {
	switch step {
	case StepSymbolic:
		return StepSymbolicHidden
	case StepABcast:
		return StepABcastHidden
	case StepBBcast:
		return StepBBcastHidden
	case StepAllToAll:
		return StepAllToAllHidden
	}
	return ""
}

// Steps lists the seven categories in the paper's presentation order.
var Steps = planner.Steps

// Options configures a distributed multiplication.
type Options struct {
	// Semiring defaults to plus-times.
	Semiring *semiring.Semiring
	// Kernel is the Local-Multiply implementation. The zero value is the
	// paper's sort-free unsorted-hash kernel, which every planned run
	// executes; the sorted hash kernel is an explicit pin for the
	// differentials. Both produce bit-identical values and the same metered
	// work units.
	Kernel localmm.Kernel
	// Merger is ignored: Merge-Layer and Merge-Fiber always run the paper's
	// sort-free hash merge, localmm.MergerHash, the zero value. The field
	// stays only because the wall-clock benchmark's serial replay reads it;
	// it goes once that replay stops.
	Merger localmm.Merger
	// Channels is k, the number of modeled NIC channels the overlap ledger
	// may hide split collectives behind: each measured compute second can
	// hide up to k outstanding requests' communication. 0 or 1 is the
	// paper's single-injection model (bit-identical to earlier releases);
	// higher k only matters with Pipeline, where more than one collective
	// can be in flight over the same compute window.
	Channels int
	// MemBytes is the aggregate memory M available across all processes, in
	// bytes, used by the symbolic step to choose the batch count (Alg 3 line
	// 12) at r = spmat.BytesPerNonzero modeled bytes per stored nonzero
	// (Sec. IV-A). Zero means unconstrained.
	MemBytes int64
	// ForceBatches, when positive, bypasses the symbolic decision and runs
	// exactly this many batches (the paper's l/b sweeps in Fig 4 fix b).
	ForceBatches int
	// RunSymbolic forces the symbolic step to execute (and be metered) even
	// when ForceBatches is set. When ForceBatches == 0 the symbolic step
	// always runs, since b must be computed.
	RunSymbolic bool
	// Threads is the most worker goroutines one rank's local kernel may run
	// (the paper uses 16 per process on KNL). It is a ceiling, not a demand:
	// a kernel call runs no more workers than its work pays for
	// (localmm.Workers) and one per host core its compute section holds
	// (mpi.Comm.Workers — cores go to waiting ranks first, to a rank's extra
	// workers only when otherwise idle). Outputs, work units and modeled
	// numbers do not depend on the count. Default 1.
	Threads int
	// Pipeline overlaps communication with computation across the whole
	// schedule. Within a batch, stage s+1's A- and B-broadcasts are posted
	// (mpi.IbcastStart) before stage s's local multiply runs; across batch
	// boundaries, the last stage of batch t posts batch t+1's first
	// broadcasts so the pipeline never drains; and the fiber AllToAll is
	// split (mpi.IalltoallvStart) and completed only after the own-layer
	// share of Merge-Layer ran, hiding the exchange behind that merge. The
	// share of each collective hidden this way is charged to the *-Hidden
	// meter categories (StepABcastHidden, ...) instead of the paper's step;
	// output values are bit-identical to the staged schedule. Default off,
	// which meters the paper's strictly staged schedule: every collective
	// charged in full to its step, nothing hidden, and the ColSplit packing
	// before the fiber exchange charged as Merge-Layer compute.
	Pipeline bool
	// Format selects the in-memory storage of every local block:
	// spmat.FormatCSC (dense column pointers, the pre-format-knob behavior),
	// spmat.FormatDCSC (doubly compressed), or spmat.FormatAuto — the zero
	// value and default — which compresses a block exactly when fewer than
	// half its columns are occupied (the hypersparse wire threshold). The
	// knob never changes output values or communication volume: the wire
	// encoding is chosen by occupancy alone, and the kernels visit columns
	// in the same order either way. What it changes is the in-memory and
	// modeled cost: DCSC blocks drop the O(cols) per-block metadata from
	// kernels, splits, and work-unit accounting, and their smaller modeled
	// footprint lets the symbolic step pick fewer batches under the same
	// MemBytes (less fiber AllToAll re-broadcast volume).
	Format spmat.Format
	// SparseComm selects the column-subset A-broadcast path
	// (mpi.IbcastColsStart): each receiver learns, from the row support of
	// the B blocks it saw in the symbolic pass (or from one Allgather along
	// the process column when the symbolic pass is skipped), which columns
	// of every broadcast A block its multiplies can touch, and the stage
	// broadcasts ship those subsets point-to-point when the α–β model says
	// they beat the full tree broadcast. Output values are bit-identical in
	// every mode — the subsets are a communication-volume change only. The
	// zero value (mpi.SparseOff) meters byte-for-byte like releases without
	// the knob; mpi.SparseAuto lets every stage decide; mpi.SparseOn forces
	// the subset exchange (differential testing).
	SparseComm mpi.SparseMode
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Semiring == nil {
		o.Semiring = semiring.PlusTimes()
	}
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.Channels <= 0 {
		o.Channels = 1
	}
	return o
}
