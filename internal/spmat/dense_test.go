package spmat

import (
	"math"
	"math/rand"
	"testing"
)

// randomDense returns a rows×cols dense matrix with small-integer values
// (exactly representable, so any summation order over them is bit-identical —
// the same property the sparse differential tests rely on).
func randomDense(rows, cols int32, seed int64) *DenseMat {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(rows, cols)
	for i := range d.Val {
		d.Val[i] = float64(rng.Intn(9) + 1)
	}
	return d
}

// TestDenseRoundTrip: serialize → deserialize must reproduce the matrix
// bit-for-bit across random shapes, including degenerate empty ones, and
// CommBytes must equal the encoded length.
func TestDenseMatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < 60; it++ {
		rows := int32(rng.Intn(64))
		cols := int32(rng.Intn(24))
		d := randomDense(rows, cols, int64(it))
		buf := d.Serialize()
		if int64(len(buf)) != d.CommBytes() {
			t.Fatalf("it %d (%v): CommBytes %d vs encoded %d", it, d, d.CommBytes(), len(buf))
		}
		if d.CommBytes() != DenseWireBytesFor(rows, cols) {
			t.Fatalf("it %d: CommBytes disagrees with DenseWireBytesFor", it)
		}
		got, err := DeserializeDense(buf)
		if err != nil {
			t.Fatalf("it %d (%v): %v", it, d, err)
		}
		if !DenseEqual(d, got) {
			t.Fatalf("it %d (%v): round trip changed the matrix", it, d)
		}
	}
}

// TestDenseRoundTripSpecialValues: NaN payloads, signed zeros, and infinities
// must survive the wire bit-exactly.
func TestDenseRoundTripSpecialValues(t *testing.T) {
	d := NewDense(2, 3)
	d.Val = []float64{
		math.NaN(), math.Copysign(0, -1), math.Inf(1),
		math.Inf(-1), 0, math.Float64frombits(0x7ff8000000000001),
	}
	got, err := DeserializeDense(d.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Val {
		if math.Float64bits(d.Val[i]) != math.Float64bits(got.Val[i]) {
			t.Fatalf("value %d: %x round-tripped to %x", i,
				math.Float64bits(d.Val[i]), math.Float64bits(got.Val[i]))
		}
	}
	if !DenseEqual(d, got) {
		t.Fatal("DenseEqual must compare bits, not float equality")
	}
}

// TestDenseDeserializeRejectsHostile: the decoder must reject truncation,
// negative shapes, size lies, nonzero flags, and trailing garbage.
func TestDenseDeserializeRejectsHostile(t *testing.T) {
	d := randomDense(4, 3, 1)
	buf := d.Serialize()
	if _, err := DeserializeDense(buf[:5]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := DeserializeDense(buf[:len(buf)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := DeserializeDense(append(append([]byte(nil), buf...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	neg := append([]byte(nil), buf...)
	neg[3] = 0x80 // rows < 0
	if _, err := DeserializeDense(neg); err == nil {
		t.Error("negative rows accepted")
	}
	flg := append([]byte(nil), buf...)
	flg[8] = 0x04
	if _, err := DeserializeDense(flg); err == nil {
		t.Error("unknown flags accepted")
	}
	lie := append([]byte(nil), buf...)
	lie[0] = 0xff // rows claims 255+, payload holds 12 values
	if _, err := DeserializeDense(lie); err == nil {
		t.Error("shape/size disagreement accepted")
	}
}

// TestDenseSlicing: RowView/ColRange/HCat/CopyInto/AddInto must agree with
// direct index arithmetic.
func TestDenseSlicing(t *testing.T) {
	d := randomDense(10, 6, 3)
	rr := DenseRowView(d, 2, 7)
	for i := int32(0); i < 5; i++ {
		for j := int32(0); j < 6; j++ {
			if rr.At(i, j) != d.At(i+2, j) {
				t.Fatalf("RowView (%d,%d)", i, j)
			}
		}
	}
	cr := DenseColRange(d, 1, 4)
	for i := int32(0); i < 10; i++ {
		for j := int32(0); j < 3; j++ {
			if cr.At(i, j) != d.At(i, j+1) {
				t.Fatalf("ColRange (%d,%d)", i, j)
			}
		}
	}
	cat := DenseHCat([]*DenseMat{DenseColRange(d, 0, 2), DenseColRange(d, 2, 6)})
	if !DenseEqual(cat, d) {
		t.Fatal("HCat of a column split must reproduce the matrix")
	}
	asm := NewDense(10, 6)
	DenseRowView(d, 0, 4).CopyInto(asm, 0, 0)
	DenseRowView(d, 4, 10).CopyInto(asm, 4, 0)
	if !DenseEqual(asm, d) {
		t.Fatal("CopyInto of a row split must reproduce the matrix")
	}
	acc := NewDense(10, 6)
	d.AddInto(acc, 0, 0)
	d.AddInto(acc, 0, 0)
	for i := range acc.Val {
		if acc.Val[i] != 2*d.Val[i] {
			t.Fatal("AddInto must accumulate")
		}
	}
}

// TestDenseCSCConversion: DenseFromCSC ∘ ToCSC must be the identity on dense
// matrices without explicit zeros, and ToCSC must drop zeros.
func TestDenseCSCConversion(t *testing.T) {
	d := randomDense(12, 5, 9)
	d.Set(3, 2, 0)
	d.Set(7, 0, 0)
	m := d.ToCSC()
	if err := m.Validate(); err != nil {
		t.Fatalf("ToCSC produced invalid CSC: %v", err)
	}
	if m.NNZ() != int64(len(d.Val)-2) {
		t.Fatalf("ToCSC kept %d entries, want %d", m.NNZ(), len(d.Val)-2)
	}
	back := DenseFromCSC(m)
	if !DenseEqual(d, back) {
		t.Fatal("DenseFromCSC(ToCSC(d)) differs from d")
	}
}
