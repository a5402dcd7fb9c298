package genmat

import (
	"testing"

	"repro/internal/localmm"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

func TestRMATShapeAndDeterminism(t *testing.T) {
	cfg := RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 42}
	m := RMAT(cfg)
	if m.Rows != 256 || m.Cols != 256 {
		t.Fatalf("shape %v", m)
	}
	if m.NNZ() == 0 || m.NNZ() > 256*8 {
		t.Errorf("nnz=%d outside (0, %d]", m.NNZ(), 256*8)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !spmat.Equal(m, RMAT(cfg)) {
		t.Error("same seed produced different matrices")
	}
	cfg2 := cfg
	cfg2.Seed = 43
	if spmat.Equal(m, RMAT(cfg2)) {
		t.Error("different seeds produced identical matrices")
	}
}

func TestRMATSkew(t *testing.T) {
	// R-MAT with Graph500 constants concentrates mass in low indices: the
	// first quarter of columns should hold well over a quarter of the edges.
	m := RMAT(RMATConfig{Scale: 10, EdgeFactor: 16, Seed: 7})
	var firstQuarter int64
	for j := int32(0); j < m.Cols/4; j++ {
		firstQuarter += m.ColNNZ(j)
	}
	frac := float64(firstQuarter) / float64(m.NNZ())
	if frac < 0.35 {
		t.Errorf("first quarter holds only %.2f of edges; R-MAT should be skewed", frac)
	}
}

func TestRMATSymmetrize(t *testing.T) {
	m := RMAT(RMATConfig{Scale: 7, EdgeFactor: 8, Symmetrize: true, Weighted: true, Seed: 9})
	if !spmat.ApproxEqual(m, spmat.Transpose(m), 1e-12) {
		t.Error("symmetrized R-MAT is not symmetric")
	}
}

func TestRMATSelfLoops(t *testing.T) {
	m := RMAT(RMATConfig{Scale: 6, EdgeFactor: 4, SelfLoops: true, Seed: 10})
	for i := int32(0); i < m.Rows; i++ {
		if m.At(i, i) == 0 {
			t.Fatalf("missing self loop at %d", i)
		}
	}
}

func TestERDegree(t *testing.T) {
	m := ER(512, 8, 11)
	avg := float64(m.NNZ()) / 512
	if avg < 6.5 || avg > 8.0 { // duplicates collapse, so slightly below 8
		t.Errorf("average degree %v, want ≈8", avg)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProteinSimilarityProperties(t *testing.T) {
	m := ProteinSimilarity(8, 6, 12)
	if !spmat.ApproxEqual(m, spmat.Transpose(m), 1e-12) {
		t.Error("protein-similarity matrix must be symmetric")
	}
	for i := int32(0); i < m.Rows; i++ {
		if m.At(i, i) == 0 {
			t.Fatal("protein-similarity matrix must be reflexive")
		}
	}
	// Squaring must expand: nnz(AA) > nnz(A), the regime that needs batching.
	st := Collect("prot", m)
	if st.NnzC <= st.NnzA {
		t.Errorf("nnz(C)=%d not larger than nnz(A)=%d", st.NnzC, st.NnzA)
	}
}

func TestKmerMatrix(t *testing.T) {
	cfg := KmerConfig{Reads: 200, Kmers: 4000, KmersPerRead: 10, Overlap: 0.3, Seed: 13}
	m := Kmer(cfg)
	if m.Rows != 200 || m.Cols != 4000 {
		t.Fatalf("shape %v", m)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Values are structural 1s.
	for _, v := range m.Val {
		if v != 1 {
			t.Fatalf("value %v, want 1", v)
		}
	}
	// Overlap creates shared k-mers: AAᵀ must have off-diagonal entries.
	at := spmat.Transpose(m)
	c := localmm.Multiply(m, at, nil2())
	var off int64
	for _, tr := range c.Triples() {
		if tr.Row != tr.Col {
			off++
		}
	}
	if off == 0 {
		t.Error("no overlapping reads; AAT study needs off-diagonals")
	}
}

func TestKmerNoOverlapStillValid(t *testing.T) {
	m := Kmer(KmerConfig{Reads: 50, Kmers: 100000, KmersPerRead: 3, Seed: 14})
	// Hypersparse: most k-mer columns empty, ~reads·kmersPerRead entries.
	if m.NNZ() > 150 {
		t.Errorf("nnz=%d, want ≤150", m.NNZ())
	}
}

func TestTriangleSplit(t *testing.T) {
	m := RMAT(RMATConfig{Scale: 6, EdgeFactor: 8, Symmetrize: true, Seed: 16})
	l, u := LowerTriangle(m), UpperTriangle(m)
	for _, tr := range l.Triples() {
		if tr.Row <= tr.Col {
			t.Fatal("lower triangle contains upper entry")
		}
	}
	for _, tr := range u.Triples() {
		if tr.Row >= tr.Col {
			t.Fatal("upper triangle contains lower entry")
		}
	}
	var diag int64
	for i := int32(0); i < m.Rows; i++ {
		if m.At(i, i) != 0 {
			diag++
		}
	}
	if l.NNZ()+u.NNZ()+diag != m.NNZ() {
		t.Error("L + U + diag does not partition the matrix")
	}
}

func TestStatsString(t *testing.T) {
	m := ER(64, 4, 17)
	s := Collect("er64", m)
	if s.Squared != "AA" {
		t.Errorf("squared=%s", s.Squared)
	}
	if s.CF < 1 {
		t.Errorf("cf=%v < 1", s.CF)
	}
	if s.String() == "" || StatsHeader() == "" {
		t.Error("empty rendering")
	}
	// Rectangular → AAT.
	k := Kmer(KmerConfig{Reads: 30, Kmers: 300, KmersPerRead: 5, Seed: 18})
	if Collect("kmer", k).Squared != "AAT" {
		t.Error("rectangular stats should use AAT")
	}
}

// nil2 returns the plus-times semiring; it keeps multiply call sites short.
func nil2() *semiring.Semiring { return semiring.PlusTimes() }

func TestSymmetricPermutePreservesStructure(t *testing.T) {
	m := ProteinSimilarity(7, 6, 19)
	p := SymmetricPermute(m, 20)
	if p.NNZ() != m.NNZ() {
		t.Errorf("permutation changed nnz: %d vs %d", p.NNZ(), m.NNZ())
	}
	// Symmetry is preserved by a symmetric permutation.
	if !spmat.ApproxEqual(p, spmat.Transpose(p), 1e-12) {
		t.Error("symmetric permutation broke symmetry")
	}
	// Degree multiset is preserved.
	degM := m.RowCounts()
	degP := p.RowCounts()
	sortInt64s(degM)
	sortInt64s(degP)
	for i := range degM {
		if degM[i] != degP[i] {
			t.Fatal("degree multiset changed")
		}
	}
}

func sortInt64s(x []int64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}
