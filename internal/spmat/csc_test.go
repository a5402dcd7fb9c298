package spmat

import (
	"math/rand"
	"testing"
)

// randomCSC builds a deterministic random matrix with roughly density d.
func randomCSC(t testing.TB, rows, cols int32, d float64, seed int64) *CSC {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := int(float64(rows) * float64(cols) * d)
	ts := make([]Triple, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, Triple{
			Row: int32(rng.Intn(int(rows))),
			Col: int32(rng.Intn(int(cols))),
			Val: rng.Float64()*2 - 1,
		})
	}
	m, err := FromTriples(rows, cols, ts, nil)
	if err != nil {
		t.Fatalf("FromTriples: %v", err)
	}
	return m
}

func TestNewEmpty(t *testing.T) {
	m := New(5, 7)
	if m.Rows != 5 || m.Cols != 7 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.NNZ() != 0 {
		t.Fatalf("nnz = %d, want 0", m.NNZ())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromTriplesAccumulates(t *testing.T) {
	ts := []Triple{{0, 0, 1}, {0, 0, 2}, {1, 1, 3}, {0, 1, 4}}
	m, err := FromTriples(2, 2, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 0); got != 3 {
		t.Errorf("At(0,0)=%v, want 3", got)
	}
	if got := m.At(1, 1); got != 3 {
		t.Errorf("At(1,1)=%v, want 3", got)
	}
	if got := m.At(0, 1); got != 4 {
		t.Errorf("At(0,1)=%v, want 4", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Errorf("At(1,0)=%v, want 0", got)
	}
	if m.NNZ() != 3 {
		t.Errorf("nnz=%d, want 3", m.NNZ())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromTriplesOutOfRange(t *testing.T) {
	if _, err := FromTriples(2, 2, []Triple{{2, 0, 1}}, nil); err == nil {
		t.Error("row out of range not rejected")
	}
	if _, err := FromTriples(2, 2, []Triple{{0, -1, 1}}, nil); err == nil {
		t.Error("negative column not rejected")
	}
}

func TestTriplesRoundTrip(t *testing.T) {
	m := randomCSC(t, 40, 30, 0.1, 1)
	ts := m.Triples()
	m2, err := FromTriples(m.Rows, m.Cols, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(m, m2) {
		t.Error("triples round trip changed matrix")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := randomCSC(t, 10, 10, 0.3, 2)
	bad := m.Clone()
	bad.RowIdx[0] = 99
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range row index not caught")
	}
	bad2 := m.Clone()
	bad2.ColPtr[1] = bad2.ColPtr[m.Cols] + 5
	if err := bad2.Validate(); err == nil {
		t.Error("non-monotone ColPtr not caught")
	}
}

func TestSortColumns(t *testing.T) {
	m := &CSC{
		Rows: 5, Cols: 2,
		ColPtr:     []int64{0, 3, 5},
		RowIdx:     []int32{4, 0, 2, 3, 1},
		Val:        []float64{40, 0, 20, 30, 10},
		SortedCols: false,
	}
	m.SortColumns()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.RowIdx[0] != 0 || m.Val[0] != 0 {
		t.Errorf("first entry after sort: row %d val %v", m.RowIdx[0], m.Val[0])
	}
	if m.At(4, 0) != 40 || m.At(2, 0) != 20 || m.At(1, 1) != 10 {
		t.Error("values not carried with rows during sort")
	}
}

func TestCompactMergesDuplicates(t *testing.T) {
	m := &CSC{
		Rows: 4, Cols: 1,
		ColPtr:     []int64{0, 5},
		RowIdx:     []int32{2, 0, 2, 1, 0},
		Val:        []float64{1, 2, 3, 4, 5},
		SortedCols: false,
	}
	m.Compact(nil)
	if m.NNZ() != 3 {
		t.Fatalf("nnz=%d, want 3", m.NNZ())
	}
	if m.At(0, 0) != 7 || m.At(1, 0) != 4 || m.At(2, 0) != 4 {
		t.Errorf("wrong merged values: %v %v %v", m.At(0, 0), m.At(1, 0), m.At(2, 0))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEqualIgnoresColumnOrder(t *testing.T) {
	a := Dense(3, 3, []float64{1, 0, 2, 0, 3, 0, 4, 0, 5})
	b := a.Clone()
	// Shuffle one column's order.
	b.RowIdx[0], b.RowIdx[1] = b.RowIdx[1], b.RowIdx[0]
	b.Val[0], b.Val[1] = b.Val[1], b.Val[0]
	b.SortedCols = false
	if !Equal(a, b) {
		t.Error("Equal should ignore within-column ordering")
	}
	c := a.Clone()
	c.Val[0] += 1e-12
	if Equal(a, c) {
		t.Error("Equal should detect value differences")
	}
	if !ApproxEqual(a, c, 1e-9) {
		t.Error("ApproxEqual should allow tolerance")
	}
}

func TestEqualDuplicateAware(t *testing.T) {
	// a stores 5 at (0,0); b stores it as 2+3 duplicates.
	a, _ := FromTriples(2, 2, []Triple{{0, 0, 5}}, nil)
	b := &CSC{
		Rows: 2, Cols: 2,
		ColPtr:     []int64{0, 2, 2},
		RowIdx:     []int32{0, 0},
		Val:        []float64{2, 3},
		SortedCols: false,
	}
	if !Equal(a, b) {
		t.Error("Equal should merge duplicates before comparing")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(6)
	if err := id.Validate(); err != nil {
		t.Fatal(err)
	}
	if id.NNZ() != 6 {
		t.Fatalf("nnz=%d", id.NNZ())
	}
	for i := int32(0); i < 6; i++ {
		if id.At(i, i) != 1 {
			t.Errorf("diag(%d) = %v", i, id.At(i, i))
		}
	}
}

func TestDenseRoundTrip(t *testing.T) {
	data := []float64{1, 0, 2, 0, 0, 3, 4, 5, 0, 0, 0, 6}
	m := Dense(3, 4, data)
	got := m.ToDense()
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("ToDense[%d]=%v, want %v", i, got[i], data[i])
		}
	}
}

func TestColRowCounts(t *testing.T) {
	m := Dense(3, 3, []float64{1, 0, 2, 0, 0, 3, 4, 0, 0})
	if m.ColNNZ(0) != 2 || m.ColNNZ(1) != 0 || m.ColNNZ(2) != 2 {
		t.Errorf("ColNNZ=%d,%d,%d", m.ColNNZ(0), m.ColNNZ(1), m.ColNNZ(2))
	}
	rc := m.RowCounts()
	if rc[0] != 2 || rc[1] != 1 || rc[2] != 1 {
		t.Errorf("RowCounts=%v", rc)
	}
}

func TestMemBytes(t *testing.T) {
	m := Identity(10)
	if m.MemBytes() != 240 {
		t.Errorf("MemBytes=%d, want 240", m.MemBytes())
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := randomCSC(t, 10, 10, 0.2, 3)
	c := m.Clone()
	if len(c.Val) > 0 {
		c.Val[0] = 999
		if m.Val[0] == 999 {
			t.Error("Clone shares value storage")
		}
	}
}
