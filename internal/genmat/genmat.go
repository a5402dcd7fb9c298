package genmat

import (
	"math/rand"

	"repro/internal/spmat"
)

// RMATConfig parameterizes the recursive-matrix generator of Chakrabarti et
// al., the generator behind Graph500 and the paper's social-network regime.
type RMATConfig struct {
	// Scale gives n = 2^Scale vertices.
	Scale int
	// EdgeFactor is the average number of (directed) edges per vertex.
	EdgeFactor int
	// A, B, C quadrant probabilities; D = 1-A-B-C. Zero values default to
	// the Graph500 constants (0.57, 0.19, 0.19).
	A, B, C float64
	// Symmetrize mirrors every edge, producing an undirected graph.
	Symmetrize bool
	// SelfLoops adds the full diagonal (protein-similarity matrices are
	// reflexive).
	SelfLoops bool
	// Weighted draws values uniformly from (0,1]; otherwise all values are 1.
	Weighted bool
	// Seed drives the deterministic stream.
	Seed int64
}

func (c RMATConfig) withDefaults() RMATConfig {
	if c.A == 0 && c.B == 0 && c.C == 0 {
		c.A, c.B, c.C = 0.57, 0.19, 0.19
	}
	if c.EdgeFactor == 0 {
		c.EdgeFactor = 8
	}
	return c
}

// RMAT generates a 2^Scale × 2^Scale sparse matrix with approximately
// EdgeFactor·2^Scale nonzeros following the R-MAT skewed degree distribution.
// Duplicate edges are accumulated (weighted) or collapsed to 1 (unweighted).
func RMAT(cfg RMATConfig) *spmat.CSC {
	cfg = cfg.withDefaults()
	n := int32(1) << cfg.Scale
	rng := rand.New(rand.NewSource(cfg.Seed))
	edges := int(n) * cfg.EdgeFactor
	ts := make([]spmat.Triple, 0, edges*2)
	for e := 0; e < edges; e++ {
		r, c := rmatEdge(cfg, rng, n)
		v := 1.0
		if cfg.Weighted {
			v = rng.Float64()*0.999 + 0.001
		}
		ts = append(ts, spmat.Triple{Row: r, Col: c, Val: v})
		if cfg.Symmetrize && r != c {
			ts = append(ts, spmat.Triple{Row: c, Col: r, Val: v})
		}
	}
	if cfg.SelfLoops {
		for i := int32(0); i < n; i++ {
			ts = append(ts, spmat.Triple{Row: i, Col: i, Val: 1})
		}
	}
	add := func(a, b float64) float64 { return a + b }
	if !cfg.Weighted {
		// Collapse duplicates to structural 1s.
		add = func(a, b float64) float64 { return 1 }
	}
	m, err := spmat.FromTriples(n, n, ts, add)
	if err != nil {
		panic(err) // generator produces in-range coordinates by construction
	}
	return m
}

// rmatEdge draws one edge by recursive quadrant descent.
func rmatEdge(cfg RMATConfig, rng *rand.Rand, n int32) (int32, int32) {
	var r, c int32
	for half := n / 2; half > 0; half /= 2 {
		u := rng.Float64()
		switch {
		case u < cfg.A:
			// top-left: nothing to add
		case u < cfg.A+cfg.B:
			c += half
		case u < cfg.A+cfg.B+cfg.C:
			r += half
		default:
			r += half
			c += half
		}
	}
	return r, c
}

// ER generates an n×n Erdős–Rényi matrix with approximately avgDeg nonzeros
// per column, values 1.
func ER(n int32, avgDeg int, seed int64) *spmat.CSC {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]spmat.Triple, 0, int(n)*avgDeg)
	for j := int32(0); j < n; j++ {
		for d := 0; d < avgDeg; d++ {
			ts = append(ts, spmat.Triple{Row: int32(rng.Intn(int(n))), Col: j, Val: 1})
		}
	}
	m, err := spmat.FromTriples(n, n, ts, func(a, b float64) float64 { return 1 })
	if err != nil {
		panic(err)
	}
	return m
}

// ProteinSimilarity generates a protein-similarity-network analogue: a
// symmetric, weighted, reflexive power-law graph — the structure HipMCL
// squares (Eukarya, Isolates, Metaclust50 in Table V). Scale gives 2^Scale
// proteins; edgeFactor controls density.
func ProteinSimilarity(scale, edgeFactor int, seed int64) *spmat.CSC {
	return RMAT(RMATConfig{
		Scale:      scale,
		EdgeFactor: edgeFactor,
		Symmetrize: true,
		SelfLoops:  true,
		Weighted:   true,
		Seed:       seed,
	})
}

// KmerConfig parameterizes the reads×k-mers incidence generator.
type KmerConfig struct {
	// Reads is the number of sequences (matrix rows).
	Reads int32
	// Kmers is the number of distinct k-mers (matrix columns); the paper's
	// Rice-kmers has ~400× more columns than rows.
	Kmers int32
	// KmersPerRead is how many k-mer occurrences each read contributes.
	KmersPerRead int
	// Overlap controls how often consecutive reads share k-mers (0..1):
	// higher values produce more overlapping read pairs, the signal BELLA
	// detects. 0 draws k-mers uniformly.
	Overlap float64
	// Seed drives the deterministic stream.
	Seed int64
}

// Kmer generates a reads×kmers 0/1 incidence matrix. With Overlap > 0,
// read i reuses a fraction of read i-1's k-mers, creating genuine shared
// k-mer structure so AAᵀ has off-diagonal entries as in sequence overlap
// detection.
func Kmer(cfg KmerConfig) *spmat.CSC {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ts := make([]spmat.Triple, 0, int(cfg.Reads)*cfg.KmersPerRead)
	prev := make([]int32, 0, cfg.KmersPerRead)
	cur := make([]int32, 0, cfg.KmersPerRead)
	for i := int32(0); i < cfg.Reads; i++ {
		cur = cur[:0]
		for d := 0; d < cfg.KmersPerRead; d++ {
			var k int32
			if len(prev) > 0 && rng.Float64() < cfg.Overlap {
				k = prev[rng.Intn(len(prev))]
			} else {
				k = int32(rng.Intn(int(cfg.Kmers)))
			}
			cur = append(cur, k)
			ts = append(ts, spmat.Triple{Row: i, Col: k, Val: 1})
		}
		prev = append(prev[:0], cur...)
	}
	m, err := spmat.FromTriples(cfg.Reads, cfg.Kmers, ts, func(a, b float64) float64 { return 1 })
	if err != nil {
		panic(err)
	}
	return m
}

// Hypersparse generates a rows×cols Erdős–Rényi-style 0/1 matrix in the
// Rice-kmers regime (Table V): rows ≪ cols and ~nnzPerCol nonzeros in each
// *occupied* column, with a majority (~55%) of columns left empty — real
// k-mer tables are full of absent and singleton k-mers — so the matrix is
// hypersparse (non-empty columns < cols/2) even before a 3D grid slices it
// into still-sparser local blocks. This is the regime the DCSC storage
// format and the hypersparse wire encoding exist for.
func Hypersparse(rows, cols int32, nnzPerCol int, seed int64) *spmat.CSC {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]spmat.Triple, 0, int(cols)*nnzPerCol/2)
	for j := int32(0); j < cols; j++ {
		if rng.Float64() < 0.55 {
			continue
		}
		k := 1 + rng.Intn(2*nnzPerCol-1) // mean ≈ nnzPerCol
		for d := 0; d < k; d++ {
			ts = append(ts, spmat.Triple{Row: int32(rng.Intn(int(rows))), Col: j, Val: 1})
		}
	}
	m, err := spmat.FromTriples(rows, cols, ts, func(a, b float64) float64 { return 1 })
	if err != nil {
		panic(err)
	}
	return m
}

// TallSkinny generates a rows×cols feature panel with rows ≫ cols — the
// dense operand of the sparse×dense (SpMM) path, stored sparsely for
// MatrixMarket interchange and densified with spmat.DenseFromCSC on load.
// Entries are small positive integers (1..9) so distributed products over it
// are exact in float64 and bit-identity is assertable; fill is the fraction
// of entries present (a fill of 1 is a fully dense panel).
func TallSkinny(rows, cols int32, fill float64, seed int64) *spmat.CSC {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]spmat.Triple, 0, int(float64(rows)*float64(cols)*fill))
	for i := int32(0); i < rows; i++ {
		for j := int32(0); j < cols; j++ {
			if rng.Float64() >= fill {
				continue
			}
			ts = append(ts, spmat.Triple{Row: i, Col: j, Val: float64(rng.Intn(9) + 1)})
		}
	}
	m, err := spmat.FromTriples(rows, cols, ts, nil)
	if err != nil {
		panic(err)
	}
	return m
}

// SymmetricPermute relabels rows and columns of a square matrix with the
// same random permutation (P·M·Pᵀ). R-MAT generators concentrate high-degree
// vertices in low indices, which would load one process row of a 2D/3D grid
// far more than the others; production pipelines (CombBLAS, HipMCL) randomly
// permute inputs for exactly this reason, and the workload generators here
// do the same.
func SymmetricPermute(m *spmat.CSC, seed int64) *spmat.CSC {
	if m.Rows != m.Cols {
		panic("genmat: SymmetricPermute needs a square matrix")
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(int(m.Rows))
	ts := m.Triples()
	for i := range ts {
		ts[i].Row = int32(perm[ts[i].Row])
		ts[i].Col = int32(perm[ts[i].Col])
	}
	out, err := spmat.FromTriples(m.Rows, m.Cols, ts, nil)
	if err != nil {
		panic(err)
	}
	return out
}

// LowerTriangle returns the strictly lower-triangular part of m (triangle
// counting splits the adjacency matrix into L and U).
func LowerTriangle(m *spmat.CSC) *spmat.CSC {
	out := m.Clone()
	out.Filter(func(r, c int32, _ float64) bool { return r > c })
	return out
}

// UpperTriangle returns the strictly upper-triangular part of m.
func UpperTriangle(m *spmat.CSC) *spmat.CSC {
	out := m.Clone()
	out.Filter(func(r, c int32, _ float64) bool { return r < c })
	return out
}
