package experiments

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/genmat"
	"repro/internal/spmat"
)

// Scale selects the workload size. The paper's matrices are billions of
// nonzeros; these analogues keep the distinguishing ratios (nnz(C)≫nnz(A),
// compression factor, aspect ratio) at laptop scale.
type Scale int

// Workload scales.
const (
	// ScaleTiny is for unit tests and testing.B benchmarks.
	ScaleTiny Scale = iota
	// ScaleSmall is the default for interactive runs (seconds per experiment).
	ScaleSmall
	// ScaleLarge is for the full regeneration pass (minutes).
	ScaleLarge
)

// ParseScale maps a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "small", "":
		return ScaleSmall, nil
	case "large":
		return ScaleLarge, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (tiny|small|large)", s)
}

// RunOpts configures an experiment run.
type RunOpts struct {
	// Scale selects workload sizes.
	Scale Scale
	// Machine supplies the α–β constants and compute scaling; zero value
	// defaults to Cori-KNL.
	Machine costmodel.Machine
	// Threads is the intra-rank worker count for the local multiply and merge
	// kernels (core.Options.Threads) of every run. 0 or 1 keeps the kernels
	// serial, the configuration all published figure shapes use. It is a host
	// setting: no modeled number, byte or work unit depends on it. Every other
	// engine option is pinned by the experiment itself.
	Threads int
	// Verbose experiments may add extra tables.
	Verbose bool
}

// commAmplification restores the paper's communication-to-computation
// balance on the scaled-down simulation: Cori-KNL processes compute SpGEMM
// an order of magnitude faster relative to their network than the Go
// kernels on this host do relative to the unmodified α–β constants.
// Multiplying β by this factor puts the bandwidth share of the total back
// into the paper's regime so the layer/batch tradeoffs the figures study
// are visible. Latency (α) stays physical. See EXPERIMENTS.md,
// "Calibration".
func commAmplification(sc Scale) float64 {
	switch sc {
	case ScaleTiny:
		return 32
	case ScaleLarge:
		return 8
	default:
		return 16
	}
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Machine.Name == "" {
		o.Machine = costmodel.CoriKNL()
	}
	o.Machine = o.Machine.ScaledBeta(commAmplification(o.Scale))
	return o
}

// scaleUp returns the next larger workload scale; the strong-scaling
// experiments use it so per-rank kernels at the biggest process counts are
// still microseconds-to-milliseconds and timing noise (goroutine
// preemption, GC) stays small relative to the signal.
func scaleUp(sc Scale) Scale {
	switch sc {
	case ScaleTiny:
		return ScaleSmall
	default:
		return ScaleLarge
	}
}

// Workload names match Table V; each is a deterministic scaled analogue.
const (
	WLEukarya       = "Eukarya"
	WLFriendster    = "Friendster"
	WLIsolatesSmall = "Isolates-small"
	WLIsolates      = "Isolates"
	WLMetaclust50   = "Metaclust50"
	WLRiceKmers     = "Rice-kmers"
	WLMetaclust20m  = "Metaclust20m"
)

// WorkloadNames lists the Table V analogues in the paper's order.
var WorkloadNames = []string{
	WLEukarya, WLRiceKmers, WLMetaclust20m, WLIsolatesSmall,
	WLFriendster, WLIsolates, WLMetaclust50,
}

// Workload builds the named matrix at the given scale. Square matrices are
// studied as A·A, rectangular ones as A·Aᵀ, exactly as in Table V. Square
// workloads are randomly symmetrically permuted so that R-MAT hub vertices
// spread across process blocks, matching the random-permutation load
// balancing CombBLAS and HipMCL apply to their inputs.
func Workload(name string, sc Scale) (*spmat.CSC, error) {
	// bump raises the R-MAT scale (matrix side) per workload scale.
	bump := map[Scale]int{ScaleTiny: 0, ScaleSmall: 2, ScaleLarge: 4}[sc]
	switch name {
	case WLEukarya:
		// Smallest protein network: dense-ish square with strong expansion.
		return genmat.SymmetricPermute(genmat.ProteinSimilarity(7+bump, 8, 101), 201), nil
	case WLFriendster:
		// Social network: unweighted, symmetric, heavy-tailed.
		return genmat.SymmetricPermute(genmat.RMAT(genmat.RMATConfig{
			Scale: 8 + bump, EdgeFactor: 10, Symmetrize: true, Seed: 102,
		}), 202), nil
	case WLIsolatesSmall:
		return genmat.SymmetricPermute(genmat.ProteinSimilarity(8+bump, 12, 103), 203), nil
	case WLIsolates:
		// The densest big protein network (cf highest in Table V).
		return genmat.SymmetricPermute(genmat.ProteinSimilarity(9+bump, 14, 104), 204), nil
	case WLMetaclust50:
		// Bigger but sparser than Isolates → communication-bound sooner
		// (the paper's efficiency discussion, Fig 9).
		return genmat.SymmetricPermute(genmat.ProteinSimilarity(9+bump, 5, 105), 205), nil
	case WLRiceKmers:
		// Hypersparse reads×k-mers with ≈2 nnz per k-mer column and
		// nnz(AAᵀ) ≈ nnz(A) → b=1, communication dominated (Fig 11).
		reads := int32(1) << (7 + bump)
		return genmat.Kmer(genmat.KmerConfig{
			Reads: reads, Kmers: reads * 64, KmersPerRead: 24, Overlap: 0.08, Seed: 106,
		}), nil
	case WLMetaclust20m:
		// Denser overlap structure: AAᵀ expands strongly (Fig 10 needs
		// batching at low concurrency).
		reads := int32(1) << (8 + bump)
		return genmat.Kmer(genmat.KmerConfig{
			Reads: reads, Kmers: reads * 8, KmersPerRead: 28, Overlap: 0.45, Seed: 107,
		}), nil
	}
	return nil, fmt.Errorf("experiments: unknown workload %q", name)
}

// PairFor returns the (A, B) operands studied for a workload: (A, A) for
// square matrices and (A, Aᵀ) for rectangular ones.
func PairFor(a *spmat.CSC) (*spmat.CSC, *spmat.CSC) {
	if a.Rows == a.Cols {
		return a, a
	}
	return a, spmat.Transpose(a)
}
