package spmat

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceWire encodes the rows×cols matrix whose column j holds the entries
// col(j) returns, written straight from the format comment in serialize.go.
// It shares no code with the package's encoders, so it is the independent
// oracle every one of them is held to.
func referenceWire(rows, cols int32, sorted bool, col func(j int32) ([]int32, []float64)) []byte {
	var counts []int64
	var ne, nnz int64
	var rs []int32
	var vs []float64
	for j := int32(0); j < cols; j++ {
		r, v := col(j)
		counts = append(counts, int64(len(r)))
		if len(r) > 0 {
			ne++
		}
		nnz += int64(len(r))
		rs = append(rs, r...)
		vs = append(vs, v...)
	}
	hyper := 2*ne < int64(cols) // fewer than half the columns occupied
	le := binary.LittleEndian
	b := le.AppendUint32(nil, uint32(rows))
	b = le.AppendUint32(b, uint32(cols))
	b = le.AppendUint64(b, uint64(nnz))
	var flags byte
	if sorted {
		flags |= 1
	}
	if hyper {
		flags |= 2
	}
	b = append(b, flags)
	if hyper {
		b = le.AppendUint32(b, uint32(ne))
		for j, c := range counts {
			if c > 0 {
				b = le.AppendUint32(b, uint32(j))
				b = le.AppendUint32(b, uint32(c))
			}
		}
	} else {
		var p int64
		b = le.AppendUint64(b, 0)
		for _, c := range counts {
			p += c
			b = le.AppendUint64(b, uint64(p))
		}
	}
	for _, r := range rs {
		b = le.AppendUint32(b, uint32(r))
	}
	for _, v := range vs {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// columnsOf reads m's columns straight off its arrays, keeping only the
// listed ones when keep is non-nil.
func columnsOf(m *CSC, keep map[int32]bool) func(j int32) ([]int32, []float64) {
	return func(j int32) ([]int32, []float64) {
		if keep != nil && !keep[j] {
			return nil, nil
		}
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		return m.RowIdx[lo:hi], m.Val[lo:hi]
	}
}

// withOccupied returns a rows×cols matrix whose first ne columns hold two
// entries each and whose other columns are empty.
func withOccupied(rows, cols int32, ne int) *CSC {
	var ts []Triple
	for j := 0; j < ne; j++ {
		ts = append(ts, Triple{Row: 0, Col: int32(j), Val: float64(j + 1)}, Triple{Row: rows - 1, Col: int32(j), Val: -float64(j)})
	}
	m, err := FromTriples(rows, cols, ts, nil)
	if err != nil {
		panic(err)
	}
	return m
}

// TestEncodersMatchReference holds every wire encoder — both formats'
// Serialize, the column-subset view into a fresh and into a dirty oversized
// buffer, a streamed Segmented in one and three row blocks with and without
// reversed segments, and the fingerprint's hash — byte for byte to
// referenceWire, on both sides of the hypersparse threshold and past one
// stream buffer.
func TestEncodersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	unsorted := randomNNZCSC(t, 50, 80, 400, rng.Int63())
	unsorted.EnumCols(func(_ int32, rows []int32, vals []float64) {
		slices.Reverse(rows)
		slices.Reverse(vals)
	})
	unsorted.SortedCols = false
	cases := []struct {
		name string
		m    *CSC
	}{
		{"0x0", New(0, 0)},
		{"0 rows", New(0, 9)},
		{"0 cols", New(7, 0)},
		{"2ne = cols (dense encoding)", withOccupied(12, 10, 5)},
		{"2ne = cols-1 (hypersparse encoding)", withOccupied(12, 11, 5)},
		{"hypersparse", randomNNZCSC(t, 30, 500, 60, rng.Int63())},
		{"dense", randomNNZCSC(t, 40, 40, 500, rng.Int63())},
		{"unsorted columns", unsorted},
		{"past one chunk of entries", randomNNZCSC(t, 900, 300, 40000, rng.Int63())},
		{"past one chunk of column pairs", randomNNZCSC(t, 4000, 40000, 12000, rng.Int63())},
	}
	for _, tc := range cases {
		m, d := tc.m, tc.m.ToDCSC()
		want := referenceWire(m.Rows, m.Cols, m.SortedCols, columnsOf(m, nil))
		if !bytes.Equal(m.Serialize(), want) {
			t.Fatalf("%s: CSC.Serialize differs from the reference", tc.name)
		}
		if !bytes.Equal(d.Serialize(), want) {
			t.Fatalf("%s: DCSC.Serialize differs from the reference", tc.name)
		}
		sum := sha256.Sum256(want)
		for _, src := range []Matrix{m, d} {
			if got := FingerprintOf(src).Hash; got != hex.EncodeToString(sum[:]) {
				t.Fatalf("%s: %v fingerprint hash is not the reference bytes' hash", tc.name, src.Format())
			}
		}

		sorted := m.Clone()
		sorted.SortColumns()
		wantSorted := referenceWire(m.Rows, m.Cols, true, columnsOf(sorted, nil))
		for _, parts := range []int{1, 3} {
			for _, reversed := range []bool{false, true} {
				var buf bytes.Buffer
				n, err := segmentsOf(sorted, PartBounds(m.Rows, parts), reversed).WriteTo(&buf)
				if err != nil || n != int64(len(wantSorted)) || !bytes.Equal(buf.Bytes(), wantSorted) {
					t.Fatalf("%s in %d row blocks, reversed=%v: streamed bytes differ from the reference (n=%d, err=%v)", tc.name, parts, reversed, n, err)
				}
			}
		}

		var some, all []int32
		for j := int32(0); j < m.Cols; j++ {
			all = append(all, j)
			if rng.Intn(3) > 0 {
				some = append(some, j)
			}
		}
		for _, sub := range [][]int32{nil, some, all} {
			keep := make(map[int32]bool, len(sub))
			for _, j := range sub {
				keep[j] = true
			}
			wantSub := referenceWire(m.Rows, m.Cols, m.SortedCols, columnsOf(m, keep))
			for _, src := range []Matrix{m, d} {
				if !bytes.Equal(MatColSubsetSerialize(src, sub), wantSub) {
					t.Fatalf("%s, %d of %d columns of the %v form: MatColSubsetSerialize differs from the reference", tc.name, len(sub), m.Cols, src.Format())
				}
				dirty := bytes.Repeat([]byte{0xFF}, len(wantSub)+13)
				if got := (&ColSubsetView{M: src, Cols: sub}).SerializeInto(dirty); !bytes.Equal(got, wantSub) {
					t.Fatalf("%s, %d of %d columns of the %v form: SerializeInto a dirty buffer differs from the reference", tc.name, len(sub), m.Cols, src.Format())
				}
			}
		}
	}
}
