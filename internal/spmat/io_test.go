package spmat

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Deserialize decodes a matrix from the wire format into CSC, whatever the
// wire encoding: a hypersparse one fills the column pointers from its column
// list (DeserializeMatrix avoids the O(cols) pointers altogether).
func Deserialize(buf []byte) (*CSC, error) {
	m, err := DeserializeFormat(buf, FormatCSC)
	if err != nil {
		return nil, err
	}
	return m.(*CSC), nil
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	m := randomCSC(t, 30, 20, 0.15, 21)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(m, got, 0) {
		t.Error("round trip changed matrix")
	}
}

func TestMatrixMarketSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 3
1 1 2.0
2 1 5.0
3 3 7.0
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 2 || m.At(1, 0) != 5 || m.At(0, 1) != 5 || m.At(2, 2) != 7 {
		t.Error("symmetric expansion wrong")
	}
	if m.NNZ() != 4 {
		t.Errorf("nnz=%d, want 4", m.NNZ())
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(1, 1) != 1 {
		t.Error("pattern entries should default to 1")
	}
}

func TestMatrixMarketRejectsGarbage(t *testing.T) {
	for _, src := range []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 1\n",
		"%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
	} {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("accepted invalid input %q", src)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	for _, sorted := range []bool{true, false} {
		m := randomCSC(t, 50, 40, 0.1, 31)
		if !sorted {
			m.SortedCols = false
		}
		buf := m.Serialize()
		if int64(len(buf)) != m.CommBytes() {
			t.Fatalf("CommBytes=%d but serialized %d", m.CommBytes(), len(buf))
		}
		got, err := Deserialize(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.SortedCols != m.SortedCols {
			t.Error("sorted flag lost")
		}
		if !Equal(m, got) {
			t.Error("serialize round trip changed matrix")
		}
	}
}

func TestDeserializeRejectsTruncated(t *testing.T) {
	m := Identity(4)
	buf := m.Serialize()
	if _, err := Deserialize(buf[:len(buf)-3]); err == nil {
		t.Error("truncated buffer accepted")
	}
	if _, err := Deserialize(buf[:5]); err == nil {
		t.Error("tiny buffer accepted")
	}
}

func TestSerializeEmpty(t *testing.T) {
	m := New(3, 3)
	got, err := Deserialize(m.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 || got.Rows != 3 || got.Cols != 3 {
		t.Errorf("empty round trip: %v", got)
	}
}

func TestHypersparseSerializeRoundTrip(t *testing.T) {
	// 3 entries scattered over 100k columns: the dense colptr encoding
	// would cost ~800KB; hypersparse must be tiny and lossless.
	ts := []Triple{{Row: 5, Col: 17, Val: 1.5}, {Row: 2, Col: 99999, Val: -2}, {Row: 0, Col: 50000, Val: 3}}
	m, err := FromTriples(10, 100000, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.CommBytes() > 200 {
		t.Errorf("hypersparse wire size %d bytes, expected tiny", m.CommBytes())
	}
	buf := m.Serialize()
	if int64(len(buf)) != m.CommBytes() {
		t.Fatalf("CommBytes=%d but serialized %d", m.CommBytes(), len(buf))
	}
	got, err := Deserialize(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(m, got) {
		t.Error("hypersparse round trip changed matrix")
	}
	if got.SortedCols != m.SortedCols {
		t.Error("sorted flag lost")
	}
}

func TestHypersparseThreshold(t *testing.T) {
	// Fully dense column occupancy must use the plain encoding (smaller).
	m := Identity(64)
	plain := serialHeader + 8*int64(m.Cols+1) + 12*m.NNZ()
	if m.CommBytes() != plain {
		t.Errorf("dense-occupancy matrix used hypersparse encoding: %d vs %d", m.CommBytes(), plain)
	}
	// Half-empty: hypersparse wins.
	half := New(64, 1024)
	half.ColPtr = make([]int64, 1025)
	if half.Serialize()[16]&2 == 0 {
		t.Error("empty wide matrix should use hypersparse encoding")
	}
}

func TestHypersparseEmptyMatrix(t *testing.T) {
	m := New(10, 100000)
	got, err := Deserialize(m.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 || got.Cols != 100000 {
		t.Errorf("empty hypersparse round trip: %v", got)
	}
}

func TestHypersparseRejectsCorruptCounts(t *testing.T) {
	ts := []Triple{{Row: 1, Col: 40, Val: 2}}
	m, _ := FromTriples(4, 1000, ts, nil)
	buf := m.Serialize()
	if buf[16]&2 == 0 {
		t.Fatal("fixture should be hypersparse")
	}
	// Corrupt the per-column count.
	bad := append([]byte(nil), buf...)
	bad[serialHeader+4+4] = 99
	if _, err := Deserialize(bad); err == nil {
		t.Error("corrupt counts accepted")
	}
}

func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int32(rng.Intn(40) + 1)
		cols := int32(rng.Intn(3000) + 1) // often hypersparse
		m := randomCSC(t, rows, cols, 0.02, seed)
		got, err := Deserialize(m.Serialize())
		if err != nil {
			return false
		}
		return Equal(m, got) && got.SortedCols == m.SortedCols
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
