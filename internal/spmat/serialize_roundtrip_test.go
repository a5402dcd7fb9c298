package spmat

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
)

// TestSerializeFormatIndependent: both in-memory formats of the same logical
// matrix must produce byte-identical wire encodings (and CommBytes must
// equal the encoded length) across shapes spanning the 2× hypersparse
// threshold — the property that makes communication metering independent of
// the format knob.
func TestSerializeFormatIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for it := 0; it < 60; it++ {
		rows := int32(1 + rng.Intn(64))
		cols := int32(1 + rng.Intn(512))
		nnz := rng.Intn(3 * int(cols) / 2)
		m := randomNNZCSC(t, rows, cols, nnz, int64(it))
		if rng.Intn(2) == 0 {
			m.SortedCols = false // exercise the flag bit
		}
		d := m.ToDCSC()

		cb := m.Serialize()
		db := d.Serialize()
		if !bytes.Equal(cb, db) {
			t.Fatalf("it %d (%v): CSC and DCSC wire bytes differ", it, m)
		}
		if int64(len(cb)) != m.CommBytes() || m.CommBytes() != d.CommBytes() {
			t.Fatalf("it %d (%v): CommBytes %d/%d vs encoded %d", it, m, m.CommBytes(), d.CommBytes(), len(cb))
		}
	}
}

// TestDeserializeRoundTripAllFormats: wire encodings × in-memory formats.
// Every decode target must reproduce the logical matrix; DeserializeMatrix
// must follow the wire flag (hypersparse buffers decode straight into DCSC,
// dense ones into CSC).
func TestDeserializeRoundTripAllFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 60; it++ {
		rows := int32(1 + rng.Intn(48))
		cols := int32(1 + rng.Intn(400))
		nnz := rng.Intn(2 * int(cols))
		m := randomNNZCSC(t, rows, cols, nnz, int64(1000+it))
		hyper := Hypersparse(m.NonEmptyCols(), m.Cols)

		for _, src := range []Matrix{m, m.ToDCSC()} {
			buf := src.Serialize()

			// Historical CSC decode.
			c, err := Deserialize(buf)
			if err != nil {
				t.Fatalf("it %d: Deserialize: %v", it, err)
			}
			if !Equal(m, c) {
				t.Fatalf("it %d: CSC decode differs", it)
			}

			// Wire-following decode: format matches the encoding flag.
			got, err := DeserializeMatrix(buf)
			if err != nil {
				t.Fatalf("it %d: DeserializeMatrix: %v", it, err)
			}
			wantFmt := FormatCSC
			if hyper {
				wantFmt = FormatDCSC
			}
			if got.Format() != wantFmt {
				t.Fatalf("it %d: DeserializeMatrix produced %v for hyper=%v wire", it, got.Format(), hyper)
			}
			if !Equal(m, got.ToCSC()) {
				t.Fatalf("it %d: DeserializeMatrix decode differs", it)
			}
			if d, ok := got.(*DCSC); ok {
				if err := d.Validate(); err != nil {
					t.Fatalf("it %d: decoded DCSC invalid: %v", it, err)
				}
			}

			// Forced decodes.
			for _, f := range []Format{FormatCSC, FormatDCSC} {
				forced, err := DeserializeFormat(buf, f)
				if err != nil {
					t.Fatalf("it %d: DeserializeFormat(%v): %v", it, f, err)
				}
				if forced.Format() != f {
					t.Fatalf("it %d: DeserializeFormat(%v) produced %v", it, f, forced.Format())
				}
				if !Equal(m, forced.ToCSC()) {
					t.Fatalf("it %d: DeserializeFormat(%v) decode differs", it, f)
				}
			}
		}
	}
}

// TestDeserializeMatrixRejectsHostile mirrors the CSC decoder's hardening on
// the hypersparse path: truncation, unordered or out-of-range column lists,
// and count sums that disagree with the header must all error.
func TestDeserializeMatrixRejectsHostile(t *testing.T) {
	m := randomNNZCSC(t, 8, 200, 30, 5) // hypersparse → hyper wire encoding
	buf := m.Serialize()
	if buf[16]&2 == 0 {
		t.Fatal("test matrix unexpectedly dense on the wire")
	}
	if _, err := DeserializeMatrix(buf[:len(buf)-2]); err == nil {
		t.Error("truncated buffer accepted")
	}
	// Swap the first two column entries: columns out of order.
	bad := append([]byte(nil), buf...)
	copy(bad[serialHeader+4:], buf[serialHeader+12:serialHeader+20])
	copy(bad[serialHeader+12:], buf[serialHeader+4:serialHeader+12])
	if _, err := DeserializeMatrix(bad); err == nil {
		t.Error("unordered hypersparse columns accepted")
	}
	// Inflate one count: sum disagrees with nnz.
	bad2 := append([]byte(nil), buf...)
	bad2[serialHeader+8] ^= 0x01
	if _, err := DeserializeMatrix(bad2); err == nil {
		t.Error("count/nnz disagreement accepted")
	}

	// Dense encoding with a negative leading column pointer (would index
	// out of bounds on the first column access if accepted).
	dense := New(4, 4)
	dense.RowIdx = []int32{1, 2}
	dense.Val = []float64{2, 3}
	dense.ColPtr = []int64{0, 1, 2, 2, 2} // 2 of 4 columns occupied → dense wire
	db := dense.Serialize()
	if db[16]&2 != 0 {
		t.Fatal("dense test matrix unexpectedly hypersparse on the wire")
	}
	for i, v := range []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff} { // ColPtr[0] = -1
		db[serialHeader+i] = v
	}
	if _, err := DeserializeMatrix(db); err == nil {
		t.Error("negative leading column pointer accepted")
	}
}

// TestDeserializeFromMatchesSlice: decoding from a stream is decoding the
// slice — one byte per read, in every target format, in both encodings and
// across the stream buffer — and reads no byte past the encoding.
func TestDeserializeFromMatchesSlice(t *testing.T) {
	mats := []*CSC{
		New(0, 0), New(5, 9),
		randomNNZCSC(t, 30, 500, 60, 1),     // hypersparse encoding
		randomNNZCSC(t, 40, 40, 500, 2),     // dense encoding
		randomNNZCSC(t, 900, 300, 40000, 3), // past one stream buffer
	}
	tail := []byte("next")
	for _, m := range mats {
		buf := m.Serialize()
		for _, f := range []Format{FormatAuto, FormatCSC, FormatDCSC} {
			want, err := DeserializeFormat(buf, f)
			if err != nil {
				t.Fatal(err)
			}
			src := bytes.NewReader(append(bytes.Clone(buf), tail...))
			got, err := DeserializeFrom(iotest.OneByteReader(src), int64(len(buf)), f)
			if err != nil {
				t.Fatalf("%v as %v: %v", m, f, err)
			}
			if got.Format() != want.Format() || got.Sorted() != want.Sorted() || !bytes.Equal(got.Serialize(), want.Serialize()) {
				t.Fatalf("%v as %v: the stream decoded %v, the slice %v", m, f, got, want)
			}
			if rest, _ := io.ReadAll(src); !bytes.Equal(rest, tail) {
				t.Fatalf("%v as %v: %d bytes after the encoding left unread, want %d", m, f, len(rest), len(tail))
			}
		}
	}
}

// TestDeserializeFromRejects: a stream that ends early, a length other than
// the encoding's, and an out-of-range row are errors.
func TestDeserializeFromRejects(t *testing.T) {
	buf := randomNNZCSC(t, 40, 40, 500, 4).Serialize()
	badRow := bytes.Clone(buf)
	binary.LittleEndian.PutUint32(badRow[serialHeader+8*41:], 40) // the first row index, after 41 column pointers
	for name, c := range map[string]struct {
		body []byte
		n    int64
	}{
		"stream ends early":    {buf[:len(buf)-5], int64(len(buf))},
		"trailing bytes":       {append(bytes.Clone(buf), 0, 0, 0, 0), int64(len(buf)) + 4},
		"length too short":     {buf, int64(len(buf)) - 1},
		"negative length":      {buf, -1},
		"row out of range":     {badRow, int64(len(buf))},
		"empty stream":         {nil, int64(len(buf))},
		"header, then nothing": {buf[:serialHeader], int64(len(buf))},
	} {
		if _, err := DeserializeFrom(bytes.NewReader(c.body), c.n, FormatCSC); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
