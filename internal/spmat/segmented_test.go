package spmat

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// segmentsOf cuts m's rows into blocks at the ascending bounds and returns m
// as the Segmented of its blocks' columns, an empty block column included as
// an empty segment. With reversed, every segment is a reversed copy.
func segmentsOf(m *CSC, bounds []int32, reversed bool) *Segmented {
	s := &Segmented{Rows: m.Rows, Cols: m.Cols, SegPtr: make([]int, m.Cols+1), Sorted: !reversed}
	blocks := make([]*CSC, len(bounds)-1)
	for b := range blocks {
		blocks[b] = RowRange(m, bounds[b], bounds[b+1])
	}
	for j := int32(0); j < m.Cols; j++ {
		for b, blk := range blocks {
			rows, vals := blk.Column(j)
			if reversed {
				rows, vals = slices.Clone(rows), slices.Clone(vals)
				slices.Reverse(rows)
				slices.Reverse(vals)
			}
			s.Segs = append(s.Segs, Segment{Rows: rows, Vals: vals, Offset: bounds[b]})
		}
		s.SegPtr[j+1] = len(s.Segs)
	}
	return s
}

// TestSegmentedWritesSerializeBytes: a matrix streamed from its row blocks'
// columns is its own Serialize, byte for byte and at the announced length,
// in both wire encodings, across the stream buffer's boundary, and with every
// segment handed over reversed.
func TestSegmentedWritesSerializeBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []struct {
		rows, cols int32
		nnz        int
	}{
		{0, 0, 0}, {7, 0, 0}, {0, 9, 0}, {12, 40, 0},
		{30, 500, 60},        // hypersparse encoding
		{40, 40, 500},        // dense encoding
		{900, 300, 40000},    // past one stream buffer of rows and of values
		{4000, 40000, 12000}, // hypersparse and past one buffer of column pairs
	}
	for _, sh := range shapes {
		m := randomNNZCSC(t, sh.rows, sh.cols, sh.nnz, rng.Int63())
		want := m.Serialize()
		for _, parts := range []int{1, 3} {
			bounds := PartBounds(m.Rows, parts)
			for _, reversed := range []bool{false, true} {
				s := segmentsOf(m, bounds, reversed)
				var buf bytes.Buffer
				n, err := s.WriteTo(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("%v in %d row blocks, reversed=%v: streamed bytes differ from Serialize", m, parts, reversed)
				}
				if n != int64(len(want)) || s.CommBytes() != int64(len(want)) {
					t.Fatalf("%v: wrote %d, announced %d, Serialize has %d", m, n, s.CommBytes(), len(want))
				}
			}
		}
	}
}

// TestCSCWriteToIsSerialize: a CSC streamed by WriteTo is its Serialize,
// byte for byte and at its CommBytes, in both wire encodings and across the
// stream buffer's boundary; a writer that fails ends it with that error.
func TestCSCWriteToIsSerialize(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sh := range []struct {
		rows, cols int32
		nnz        int
	}{{0, 0, 0}, {12, 40, 0}, {30, 500, 60}, {40, 40, 500}, {900, 300, 40000}, {4000, 40000, 12000}} {
		m := randomNNZCSC(t, sh.rows, sh.cols, sh.nnz, rng.Int63())
		var buf bytes.Buffer
		n, err := m.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.Serialize(); !bytes.Equal(buf.Bytes(), want) || n != int64(len(want)) || n != m.CommBytes() {
			t.Fatalf("%v: streamed %d bytes (equal %v), Serialize has %d, CommBytes %d", m, n, bytes.Equal(buf.Bytes(), want), len(want), m.CommBytes())
		}
	}
	m := randomNNZCSC(t, 900, 300, 40000, 9)
	if n, err := m.WriteTo(&failAfter{limit: wireChunk + 3}); !errors.Is(err, errWriteFailed) || n != wireChunk+3 {
		t.Fatalf("wrote %d, error %v", n, err)
	}
}

// failAfter accepts limit bytes, then fails.
type failAfter struct{ limit int }

var errWriteFailed = errors.New("write failed")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.limit {
		n := f.limit
		f.limit = 0
		return n, errWriteFailed
	}
	f.limit -= len(p)
	return len(p), nil
}

// TestSegmentedWriteError: a writer that fails ends the stream with its
// error and the count of bytes it took.
func TestSegmentedWriteError(t *testing.T) {
	m := randomNNZCSC(t, 900, 300, 40000, 6)
	s := segmentsOf(m, PartBounds(m.Rows, 2), false)
	for _, limit := range []int{0, 10, wireChunk + 3} {
		n, err := s.WriteTo(&failAfter{limit: limit})
		if !errors.Is(err, errWriteFailed) || n != int64(limit) {
			t.Fatalf("limit %d: wrote %d, error %v", limit, n, err)
		}
	}
}
