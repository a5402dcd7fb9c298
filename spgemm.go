// Package spgemm is the public API of this reproduction of
// "Communication-Avoiding and Memory-Constrained Sparse Matrix-Matrix
// Multiplication at Extreme Scale" (Hussain, Selvitopi, Buluç, Azad —
// IPDPS 2021, arXiv:2010.08526).
//
// The package exposes:
//
//   - sparse matrices (CSC) with construction, I/O, and manipulation;
//   - serial and multithreaded SpGEMM kernels over arbitrary semirings (the
//     paper's sort-free hash kernels; MultiplyParallel runs them on several
//     worker goroutines and Options.Threads lets each simulated rank do so —
//     at most that many, matching the paper's 16 threads per process);
//   - Cluster, a simulated distributed machine on which BatchedSUMMA3D — the
//     paper's integrated communication-avoiding, memory-constrained
//     algorithm — executes with per-step metering; Options.Pipeline runs the
//     fully-overlapped schedule (non-blocking collectives: stage broadcasts
//     prefetched within and across batches, the fiber AllToAll hidden behind
//     Merge-Layer) and reports the hidden communication in
//     Stats.HiddenCommSeconds;
//   - the three driving applications: Markov clustering (HipMCL), triangle
//     counting, and sequence-overlap detection (BELLA/PASTIS);
//   - a sparse×dense engine for tall-skinny panels (iterated SpMM, the GNN
//     propagation workload): Cluster.MultiplyDense runs the 1.5D ColA and
//     InnerABC schedules with replication factor c (Options.Algo,
//     Options.Replication) or densifies through SUMMA, and the analytical
//     planner picks among the three families under Options.AutoTune.
//
// A minimal multiply:
//
//	a := spgemm.RandomProteinNetwork(10, 8, 42)
//	cluster := spgemm.NewCluster(16, 4)       // 16 processes, 4 layers
//	c, stats, err := cluster.Multiply(a, a, spgemm.Options{})
//
// Batched, memory-constrained usage (the paper's headline feature):
//
//	opts := spgemm.Options{MemBytes: budget}   // symbolic step picks b
//	c, stats, err := cluster.Multiply(a, a, opts)
//	fmt.Println(stats.Batches, stats.PeakMemBytes)
package spgemm

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/planner"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// Matrix is a sparse matrix in compressed sparse column form. See the spmat
// package for the full method set (NNZ, Column, Transpose helpers, …).
type Matrix = spmat.CSC

// DenseMatrix is a row-major dense matrix — the tall-skinny operand of the
// sparse×dense path. See the spmat package for the full method set (RowSlice,
// MemBytes, …).
type DenseMatrix = spmat.DenseMat

// Triple is a coordinate-format entry used to build matrices.
type Triple = spmat.Triple

// Semiring is the algebra SpGEMM multiplies over.
type Semiring = semiring.Semiring

// Machine describes an evaluation platform (α–β constants plus compute
// scaling); see NewCluster.
type Machine = costmodel.Machine

// Re-exported semirings.
var (
	// PlusTimes is ordinary arithmetic.
	PlusTimes = semiring.PlusTimes
	// MinPlus is the tropical (shortest-path) semiring.
	MinPlus = semiring.MinPlus
	// MaxMin is the bottleneck semiring.
	MaxMin = semiring.MaxMin
	// BoolOrAnd is Boolean reachability.
	BoolOrAnd = semiring.BoolOrAnd
	// PlusPairs counts structural matches (shared k-mers).
	PlusPairs = semiring.PlusPairs
)

// Format selects the in-memory storage of the local blocks a distributed
// multiplication works on: CSC (dense column pointers), DCSC (doubly
// compressed — metadata only for non-empty columns, the hypersparse format
// of CombBLAS), or the per-block auto heuristic. See Options.Format.
type Format = spmat.Format

// Storage formats for Options.Format.
const (
	// FormatAuto compresses a block exactly when fewer than half its
	// columns are occupied (the default).
	FormatAuto = spmat.FormatAuto
	// FormatCSC forces dense column pointers everywhere.
	FormatCSC = spmat.FormatCSC
	// FormatDCSC forces doubly-compressed storage everywhere.
	FormatDCSC = spmat.FormatDCSC
)

// ParseFormat maps a CLI string (csc|dcsc|auto) to a Format.
func ParseFormat(s string) (Format, error) { return spmat.ParseFormat(s) }

// SparseMode selects how A-blocks travel in the SUMMA stages: full-block
// tree broadcasts, point-to-point column subsets, or a per-stage cost-model
// decision between the two. See Options.SparseComm.
type SparseMode = mpi.SparseMode

// Sparse communication modes for Options.SparseComm.
const (
	// SparseOff ships full blocks everywhere — the default, byte-identical
	// to releases that predate the column-subset path.
	SparseOff = mpi.SparseOff
	// SparseAuto picks subsets or the full broadcast per stage, whichever
	// the α–β model prices cheaper.
	SparseAuto = mpi.SparseAuto
	// SparseOn forces the subset exchange on every stage.
	SparseOn = mpi.SparseOn
)

// ParseSparseMode maps a CLI string (off|auto|on) to a SparseMode.
func ParseSparseMode(s string) (SparseMode, error) { return mpi.ParseSparseMode(s) }

// Algo selects the distributed algorithm family Cluster.MultiplyDense runs.
// See Options.Algo.
type Algo = planner.Algo

// Algorithm families for Options.Algo.
const (
	// AlgoSUMMA densifies the panel through the sparse 2D/3D SUMMA pipeline
	// (the zero value; for genuinely sparse panels at low concurrency it can
	// win on the larger per-message payloads).
	AlgoSUMMA = planner.AlgoSUMMA
	// AlgoColA is 1.5D ColA: the sparse matrix is block-column partitioned
	// and rotates around a ring while the dense panel stays put, replicated
	// c-fold; iterated SpMM amortizes the one-time panel replication.
	AlgoColA = planner.AlgoColA
	// AlgoInnerABC is 1.5D InnerABC: the sparse matrix is block-row
	// partitioned and stationary (replicated once, amortized across
	// iterations) while the dense panel rotates.
	AlgoInnerABC = planner.AlgoInnerABC
)

// ParseAlgo maps a CLI string (summa|cola|innerabc) to an Algo.
func ParseAlgo(s string) (Algo, error) { return planner.ParseAlgo(s) }

// Kernel selects the local multiply implementation.
type Kernel = localmm.Kernel

// Local hash kernels (Sec. IV-D of the paper). Every merge is the paper's
// sort-free hash merge.
const (
	// KernelHashUnsorted is the paper's new sort-free hash kernel (default).
	KernelHashUnsorted = localmm.KernelHashUnsorted
	// KernelHashSorted sorts each output column.
	KernelHashSorted = localmm.KernelHashSorted
)

// NewMatrix returns an empty rows×cols matrix.
func NewMatrix(rows, cols int32) *Matrix { return spmat.New(rows, cols) }

// NewDenseMatrix returns a zero rows×cols dense matrix.
func NewDenseMatrix(rows, cols int32) *DenseMatrix { return spmat.NewDense(rows, cols) }

// DenseFromSparse materializes a sparse matrix as a dense one.
func DenseFromSparse(m *Matrix) *DenseMatrix { return spmat.DenseFromCSC(m) }

// DenseEqual compares two dense matrices bit for bit.
func DenseEqual(a, b *DenseMatrix) bool { return spmat.DenseEqual(a, b) }

// DenseEqualApprox compares two dense matrices entry-wise within tol.
func DenseEqualApprox(a, b *DenseMatrix, tol float64) bool {
	return spmat.DenseApproxEqual(a, b, tol)
}

// FromTriples builds a matrix from coordinates, accumulating duplicates.
func FromTriples(rows, cols int32, ts []Triple) (*Matrix, error) {
	return spmat.FromTriples(rows, cols, ts, nil)
}

// Identity returns the n×n identity.
func Identity(n int32) *Matrix { return spmat.Identity(n) }

// Transpose returns the transpose with sorted columns.
func Transpose(m *Matrix) *Matrix { return spmat.Transpose(m) }

// Equal compares two matrices exactly, independent of within-column
// ordering. Distributed and serial multiplications of floating-point
// matrices can differ in summation order; use EqualApprox for those.
func Equal(a, b *Matrix) bool { return spmat.Equal(a, b) }

// EqualApprox compares two matrices entry-wise within tol.
func EqualApprox(a, b *Matrix, tol float64) bool { return spmat.ApproxEqual(a, b, tol) }

// ReadMatrixMarket parses a MatrixMarket coordinate stream.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return spmat.ReadMatrixMarket(r) }

// WriteMatrixMarket writes a MatrixMarket coordinate stream.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return spmat.WriteMatrixMarket(w, m) }

// MultiplySerial computes A·B on the host with the paper's hash kernel
// (sorted output). A nil semiring means plus-times.
func MultiplySerial(a, b *Matrix, sr *Semiring) *Matrix {
	if sr == nil {
		sr = semiring.PlusTimes()
	}
	return localmm.Multiply(a, b, sr)
}

// MultiplyParallel computes A·B on the host with the paper's multithreaded
// sort-free hash kernel (Sec. IV-D): flop-balanced workers each hash their
// range of output columns once, and the chunks land in an output allocated
// once at its exact size. threads is the most workers the call may start — a
// product too small to pay for a second worker runs on one — and
// threads <= 1 is identical to MultiplySerial; results are bit-identical for
// any thread count. A nil semiring means plus-times.
func MultiplyParallel(a, b *Matrix, sr *Semiring, threads int) *Matrix {
	if sr == nil {
		sr = semiring.PlusTimes()
	}
	return localmm.ParallelSpGEMM(localmm.KernelHashSorted, a, b, sr, threads)
}

// MultiplyDenseSerial computes A·B for a dense panel B on the host with the
// serial SpMM kernel — the reference the distributed schedules are
// bit-identical to.
func MultiplyDenseSerial(a *Matrix, b *DenseMatrix) *DenseMatrix {
	return localmm.SpMMSerial(a, b)
}

// Flops returns the number of multiplications needed for A·B.
func Flops(a, b *Matrix) int64 { return localmm.Flops(a, b) }

// NNZEstimate returns nnz(A·B) without forming the product (the symbolic
// kernel of Alg 3).
func NNZEstimate(a, b *Matrix) int64 { return localmm.SymbolicSpGEMM(a, b) }

// RandomProteinNetwork generates a symmetric, weighted, reflexive power-law
// matrix with 2^scale rows — a protein-similarity-network analogue.
func RandomProteinNetwork(scale, edgeFactor int, seed int64) *Matrix {
	return genmat.ProteinSimilarity(scale, edgeFactor, seed)
}

// RandomGraph generates an R-MAT power-law graph with 2^scale vertices.
func RandomGraph(scale, edgeFactor int, symmetric bool, seed int64) *Matrix {
	return genmat.RMAT(genmat.RMATConfig{
		Scale: scale, EdgeFactor: edgeFactor, Symmetrize: symmetric, Seed: seed,
	})
}

// RandomKmerMatrix generates a reads×kmers incidence matrix with overlapping
// read structure for AAᵀ studies.
func RandomKmerMatrix(reads, kmers int32, kmersPerRead int, overlap float64, seed int64) *Matrix {
	return genmat.Kmer(genmat.KmerConfig{
		Reads: reads, Kmers: kmers, KmersPerRead: kmersPerRead, Overlap: overlap, Seed: seed,
	})
}

// Options configures a distributed multiplication. The zero value runs the
// paper's defaults: sort-free hash kernels, unconstrained memory (b = 1).
type Options struct {
	// Semiring defaults to plus-times.
	Semiring *Semiring
	// Kernel selects the local multiply.
	Kernel Kernel
	// MemBytes is the aggregate memory budget; when positive the symbolic
	// step (Alg 3) picks the batch count.
	MemBytes int64
	// Batches forces a batch count, bypassing the symbolic step.
	Batches int
	// MeasureSymbolic runs (and meters) the symbolic step even when Batches
	// is forced.
	MeasureSymbolic bool
	// Threads is the most worker goroutines each rank may use inside its
	// local multiply, merge and symbolic kernels (the paper runs 16 per
	// process on Cori-KNL). 0 or 1 keeps the local kernels serial — the
	// default. It is a ceiling: the simulator deals the host's cores
	// (GOMAXPROCS) to ranks first and gives a rank extra workers only from
	// cores no rank is waiting for, so on a job with more ranks than cores a
	// kernel call usually runs one worker whatever Threads says, and no call
	// starts a worker its work does not pay for. Results, work units and the
	// communication model do not depend on it; only measured compute time
	// does.
	Threads int
	// Pipeline overlaps communication with computation across the whole
	// schedule: each SUMMA stage's broadcasts are posted before the previous
	// stage's local multiply (likewise in the symbolic pass), the last stage
	// of batch t prefetches batch t+1's first broadcasts so the pipeline
	// never drains at batch boundaries, and the fiber AllToAll completes
	// while the own-layer share of Merge-Layer still runs. Hidden
	// communication is reported in Stats.HiddenCommSeconds and per step in
	// StepStat.HiddenCommSeconds; the per-step breakdown keeps only the
	// exposed remainder. Output is bit-identical to the staged schedule.
	// Default off — the paper's strictly staged schedule: every collective
	// charged in full to its step, nothing hidden, and the packing before the
	// fiber exchange counted as Merge-Layer compute.
	Pipeline bool
	// Format selects the in-memory block storage: FormatAuto (default)
	// compresses each local block to DCSC exactly when fewer than half its
	// columns are occupied — the hypersparse regime the paper's Rice-kmers
	// AAᵀ lives in at high layer counts — FormatCSC forces dense column
	// pointers everywhere (the pre-knob behavior), and FormatDCSC forces
	// compression. The knob never changes output values or communication
	// volume; it removes the O(cols)-per-block metadata from kernels and
	// footprints, so the symbolic step can choose fewer batches for
	// hypersparse inputs under the same MemBytes.
	Format Format
	// SparseComm selects the column-subset A-broadcast path: each SUMMA
	// stage's receivers get only the A-columns their local multiply touches
	// (the nonzero rows of their B block), sent point-to-point, instead of
	// the full block over the broadcast tree. SparseOff (default) keeps the
	// full broadcast and reproduces the historical metering bit-for-bit;
	// SparseAuto decides per stage from the α–β model; SparseOn forces
	// subsets. Output values are bit-identical in all three modes — only
	// modeled communication changes.
	SparseComm SparseMode
	// AutoTune hands every remaining knob to the analytical planner: the
	// cluster's layer count, the batch count, Format, and Pipeline are
	// replaced by the best configuration the cost model predicts for this
	// input pair under MemBytes — the paper's l/b/format sweeps decided
	// analytically instead of by hand. The decision is deterministic; the
	// executed configuration is reported in Stats.Layers, Stats.Batches,
	// Stats.Format, and Stats.Pipeline. For MultiplyDense the planner
	// additionally decides the algorithm family and replication factor
	// (Stats.Algo, Stats.Replication).
	AutoTune bool
	// Algo selects the distributed algorithm family for MultiplyDense:
	// AlgoSUMMA (the zero value) densifies the panel through the sparse
	// pipeline, AlgoColA and AlgoInnerABC run the 1.5D schedules. Ignored by
	// the sparse×sparse Multiply.
	Algo Algo
	// Replication is c, the 1.5D replication factor of MultiplyDense: the p
	// ranks form a ring of p/c positions × c layers, the stationary operand
	// is replicated c-fold, and rotation rounds shrink from p to p/c².
	// Requires c² | p; 0 means 1 (the pure ring algorithm). Ignored by
	// AlgoSUMMA and the sparse×sparse Multiply.
	Replication int
	// Channels is the number of outstanding overlap channels the pipelined
	// schedule may hide collectives behind — k NIC injection queues in the
	// overlap-ledger model. 0 means 1 (the single-channel ledger). Like
	// Kernel, the knob never changes output values or communication
	// volume, only the modeled hidden share. Meaningful only with Pipeline.
	Channels int
}

func (o Options) toCore() core.Options {
	return core.Options{
		Semiring:     o.Semiring,
		Kernel:       o.Kernel,
		MemBytes:     o.MemBytes,
		ForceBatches: o.Batches,
		RunSymbolic:  o.MeasureSymbolic,
		Threads:      o.Threads,
		Pipeline:     o.Pipeline,
		Format:       o.Format,
		SparseComm:   o.SparseComm,
		Channels:     o.Channels,
	}
}

// BatchHook observes (and may prune) each finished batch of the local output;
// see Cluster.MultiplyBatched.
type BatchHook = core.BatchHook

// Stats reports what a distributed multiplication did.
type Stats struct {
	// Batches is the executed batch count (the symbolic decision unless
	// forced).
	Batches int
	// Layers is the executed layer count — the cluster's own unless
	// Options.AutoTune replaced it.
	Layers int
	// Format and Pipeline are the executed storage and schedule knobs
	// (relevant with Options.AutoTune, which may override the requested
	// ones).
	Format   Format
	Pipeline bool
	// Algo and Replication are the executed algorithm family and 1.5D
	// replication factor of a MultiplyDense run (AlgoSUMMA and 0 for the
	// sparse×sparse path).
	Algo        Algo
	Replication int
	// PeakMemBytes is the max-over-ranks modeled memory high-water mark.
	PeakMemBytes int64
	// Flops is the total multiplication count across ranks.
	Flops int64
	// Steps maps each of the paper's seven steps to (modeled comm seconds,
	// measured compute seconds, payload bytes).
	Steps map[string]StepStat
	// TotalSeconds is the modeled critical-path time: max over ranks of
	// modeled communication plus measured computation. With Options.Pipeline
	// it counts only exposed communication — the hidden share is reported
	// separately below.
	TotalSeconds float64
	// HiddenCommSeconds is the modeled communication time that overlapped
	// with local compute under Options.Pipeline (max over ranks, summed
	// across the Symbolic/A-Broadcast/B-Broadcast/AllToAll-Fiber hidden
	// categories). Zero when pipelining is off.
	HiddenCommSeconds float64
}

// StepStat is one step's aggregated metering.
type StepStat struct {
	CommSeconds    float64
	ComputeSeconds float64
	Bytes          int64
	Messages       int64
	// HiddenCommSeconds is the share of this step's modeled communication
	// that overlapped with compute under Options.Pipeline (zero otherwise;
	// always zero for the compute steps, which hide communication rather
	// than being hidden).
	HiddenCommSeconds float64
}

// StepNames lists the seven steps in the paper's order.
func StepNames() []string { return append([]string(nil), core.Steps...) }

// Cluster is a simulated distributed machine: p goroutine ranks on a
// √(p/l)×√(p/l)×l grid with α–β-modeled communication.
type Cluster struct {
	procs, layers int
	machine       Machine
}

// NewCluster returns a cluster with p processes in l layers on the default
// Cori-KNL-like machine model. p must be l times a perfect square.
func NewCluster(p, l int) *Cluster {
	return &Cluster{procs: p, layers: l, machine: costmodel.CoriKNL()}
}

// OnMachine returns a copy of the cluster using the given machine model.
func (c *Cluster) OnMachine(m Machine) *Cluster {
	return &Cluster{procs: c.procs, layers: c.layers, machine: m}
}

// Procs returns the process count.
func (c *Cluster) Procs() int { return c.procs }

// Layers returns the layer count.
func (c *Cluster) Layers() int { return c.layers }

// KNL, Haswell, and LocalHost are the predefined machine models.
func KNL() Machine       { return costmodel.CoriKNL() }
func Haswell() Machine   { return costmodel.CoriHaswell() }
func LocalHost() Machine { return costmodel.LocalHost() }

// Multiply runs BatchedSUMMA3D for C = A·B and assembles the global result.
func (c *Cluster) Multiply(a, b *Matrix, opts Options) (*Matrix, *Stats, error) {
	return c.multiply(a, b, opts, nil)
}

// MultiplyDense computes C = A·B for a dense n×d panel B (iterated SpMM, the
// GNN propagation workload) and assembles the global dense result.
// Options.Algo picks the family: the 1.5D ColA or InnerABC schedules with
// Options.Replication-fold replication, or AlgoSUMMA, which densifies the
// panel through the sparse pipeline on the cluster's layers. Only the
// plus-times semiring is supported (a dense accumulator has no additive
// identity for the others). Output is bit-identical to MultiplyDenseSerial
// for every configuration.
func (c *Cluster) MultiplyDense(a *Matrix, b *DenseMatrix, opts Options) (*DenseMatrix, *Stats, error) {
	cfg := planner.DenseConfig{Algo: opts.Algo, L: c.layers, C: max(opts.Replication, 1), B: opts.Batches, Pipeline: opts.Pipeline}
	if opts.AutoTune {
		pl, err := planner.NewDense(a, b.Cols, planner.DenseInput{P: c.procs, MemBytes: opts.MemBytes, Machine: c.machine})
		if err != nil {
			return nil, nil, err
		}
		best := pl.Best()
		if best == nil {
			return nil, nil, fmt.Errorf("spgemm: dense autotune found no feasible configuration under the %d-byte budget", opts.MemBytes)
		}
		cfg = best.DenseConfig
	}
	rc := core.RunConfig{P: c.procs, Cost: c.machine.Cost(), Opts: opts.toCore()}
	out, results, summary, err := core.MultiplyDense(a, b, rc, cfg)
	if err != nil {
		return nil, nil, err
	}
	st := c.stepStats(summary)
	for _, r := range results {
		st.Batches = r.Batches
		st.Flops += r.LocalFlops
		st.PeakMemBytes = max(st.PeakMemBytes, r.PeakMemBytes)
	}
	st.Algo, st.Pipeline = cfg.Algo, cfg.Pipeline
	if cfg.Algo == AlgoSUMMA {
		st.Layers = cfg.L
	} else {
		st.Replication = cfg.C
	}
	return out, st, nil
}

// MultiplyBatched runs BatchedSUMMA3D, invoking hook on every rank for every
// finished batch (the memory-constrained consumption pattern: prune inside
// the hook, or return an empty matrix to discard). The assembled result
// reflects the hook's pruning. The hook runs concurrently, one goroutine per
// rank: any state its calls share must be per-rank (indexed by rank) or
// synchronised.
func (c *Cluster) MultiplyBatched(a, b *Matrix, opts Options, hook func(rank, batch int, globalCols []int32, piece *Matrix) *Matrix) (*Matrix, *Stats, error) {
	var hf core.HookFactory
	if hook != nil {
		hf = func(rank int) core.BatchHook {
			return func(batch int, cols []int32, m *Matrix) *Matrix {
				return hook(rank, batch, cols, m)
			}
		}
	}
	return c.multiply(a, b, opts, hf)
}

func (c *Cluster) multiply(a, b *Matrix, opts Options, hf core.HookFactory) (*Matrix, *Stats, error) {
	rc := core.RunConfig{P: c.procs, L: c.layers, Cost: c.machine.Cost(), Opts: opts.toCore()}
	if opts.AutoTune {
		// Resolve the plan before core.Multiply so the executed configuration
		// can be reported in Stats, and under the cluster's full machine model
		// so the planner weighs communication with the same CommScale the
		// reported stats will carry.
		var err error
		if rc, _, err = core.AutoTuneOnMachine(a, b, rc, c.machine); err != nil {
			return nil, nil, err
		}
	}
	out, results, summary, err := core.Multiply(a, b, rc, hf)
	if err != nil {
		return nil, nil, err
	}
	st := c.stats(results, summary)
	st.Layers = rc.L
	st.Format = rc.Opts.Format
	st.Pipeline = rc.Opts.Pipeline
	return out, st, nil
}

// stats converts internal results into the public Stats.
func (c *Cluster) stats(results []*core.Result, summary *mpi.Summary) *Stats {
	st := c.stepStats(summary)
	st.Batches = results[0].Batches
	for _, r := range results {
		st.Flops += r.LocalFlops
		if r.PeakMemBytes > st.PeakMemBytes {
			st.PeakMemBytes = r.PeakMemBytes
		}
	}
	return st
}

// stepStats fills the per-step breakdown and the critical-path totals of the
// public Stats from a run's metering summary, scaled to the cluster's machine.
func (c *Cluster) stepStats(summary *mpi.Summary) *Stats {
	st := &Stats{Steps: make(map[string]StepStat)}
	for _, step := range core.Steps {
		s := summary.Step(step)
		stat := StepStat{
			CommSeconds:    s.CommSeconds * c.machine.CommScale,
			ComputeSeconds: s.ComputeSeconds * c.machine.ComputeScale,
			Bytes:          s.Bytes,
			Messages:       s.Messages,
		}
		if hc := core.HiddenFor(step); hc != "" {
			stat.HiddenCommSeconds = summary.Step(hc).HiddenSeconds * c.machine.CommScale
		}
		st.Steps[step] = stat
		st.TotalSeconds += stat.CommSeconds + stat.ComputeSeconds
	}
	for _, step := range core.HiddenSteps {
		st.HiddenCommSeconds += summary.Step(step).HiddenSeconds * c.machine.CommScale
	}
	return st
}

// RowOffsetOf returns the global row index of local row 0 for a given rank
// of this cluster over a matrix with the given row count; hooks need it to
// translate local row indices.
func (c *Cluster) RowOffsetOf(rows int32, rank int) int32 {
	return core.RowOffsetFor(rows, c.procs, c.layers, rank)
}
