package spmat

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/iotest"
)

// overflowHeaderSeed reproduces the wireBytes int32 overflow: a dense header
// with cols == MaxInt32 made `8*int64(cols+1)` wrap negative, so a buffer of
// exactly 25 bytes claiming nnz = 1431655766 satisfied the (corrupted) size
// check and the decoder went on to allocate a negative-length ColPtr slice
// and panic. The hardened decoder must reject it with an error.
func overflowHeaderSeed() []byte {
	buf := make([]byte, 25)
	binary.LittleEndian.PutUint32(buf[0:], 1)                     // rows
	binary.LittleEndian.PutUint32(buf[4:], uint32(math.MaxInt32)) // cols
	binary.LittleEndian.PutUint64(buf[8:], 1431655766)            // nnz
	return buf
}

// badRowSeed reproduces the missing row-index validation: a structurally
// valid dense buffer whose single entry names row 7 of a 2-row matrix. The
// unhardened decoder accepted it and kernels indexed out of bounds later.
func badRowSeed() []byte {
	m := New(2, 2)
	m.ColPtr = []int64{0, 1, 1}
	m.RowIdx = []int32{0}
	m.Val = []float64{1.5}
	buf := m.Serialize()
	binary.LittleEndian.PutUint32(buf[serialHeader+8*3:], 7) // row index after 3 colptrs
	return buf
}

func FuzzDeserializeMatrix(f *testing.F) {
	f.Add([]byte{})
	f.Add(randomNNZCSC(f, 8, 200, 30, 41).Serialize()) // hypersparse wire
	f.Add(randomNNZCSC(f, 16, 12, 60, 42).Serialize()) // dense wire
	f.Add(overflowHeaderSeed())
	f.Add(badRowSeed())

	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := DeserializeMatrix(buf)

		// The arena decode must agree with the heap decode exactly: same
		// accept/reject decision, same matrix.
		var a Arena
		am, aerr := DeserializeMatrixInto(buf, &a)
		if (err == nil) != (aerr == nil) {
			t.Fatalf("heap err %v vs arena err %v", err, aerr)
		}
		// So must the stream decode, read a byte at a time, down to the
		// stored order: it re-serializes to the same bytes.
		sm, serr := DeserializeFrom(iotest.OneByteReader(bytes.NewReader(buf)), int64(len(buf)), FormatAuto)
		if (err == nil) != (serr == nil) {
			t.Fatalf("slice err %v vs stream err %v", err, serr)
		}
		if err != nil {
			return // rejected: nothing else to check
		}
		if !Equal(m.ToCSC(), am.ToCSC()) {
			t.Fatal("arena decode differs from heap decode")
		}
		if !bytes.Equal(sm.Serialize(), m.Serialize()) {
			t.Fatal("stream decode differs from slice decode")
		}

		// Whatever the decoder accepts must be structurally sound (in-range
		// indices above all — the bug class the hardening closed). The wire's
		// sorted flag is the sender's claim, not validated at decode, so it is
		// cleared before the structural check.
		switch mm := m.(type) {
		case *CSC:
			mm.SortedCols = false
			if verr := mm.Validate(); verr != nil {
				t.Fatalf("decoder accepted invalid CSC: %v", verr)
			}
		case *DCSC:
			mm.SortedCols = false
			if verr := mm.Validate(); verr != nil {
				t.Fatalf("decoder accepted invalid DCSC: %v", verr)
			}
		}

		// Round-trip through the canonical encoding. The input may use the
		// non-canonical encoding for its occupancy (the flag is the sender's
		// choice), so compare matrices, not bytes.
		enc := m.Serialize()
		m2, err := DeserializeMatrix(enc)
		if err != nil {
			t.Fatalf("re-encoded matrix rejected: %v", err)
		}
		if !Equal(m.ToCSC(), m2.ToCSC()) {
			t.Fatal("round trip changed the matrix")
		}
	})
}
