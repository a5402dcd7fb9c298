package spmat

import (
	"bytes"
	"math/rand"
	"testing"
)

// subsetReference materializes the column subset the view promises: a copy of
// m with every unlisted column emptied.
func subsetReference(m *CSC, cols []int32) *CSC {
	keep := make(map[int32]bool, len(cols))
	for _, j := range cols {
		keep[j] = true
	}
	out := m.Clone()
	out.Filter(func(_, j int32, _ float64) bool { return keep[j] })
	return out
}

func TestRowSupport(t *testing.T) {
	m := randomNNZCSC(t, 64, 40, 90, 11)
	sup := RowSupport(m)
	seen := make([]bool, m.Rows)
	for _, r := range m.RowIdx {
		seen[r] = true
	}
	var want []int32
	for r, s := range seen {
		if s {
			want = append(want, int32(r))
		}
	}
	if len(sup) != len(want) {
		t.Fatalf("RowSupport returned %d rows, want %d", len(sup), len(want))
	}
	for i := range sup {
		if sup[i] != want[i] {
			t.Fatalf("RowSupport[%d] = %d, want %d", i, sup[i], want[i])
		}
	}
	// Support of a DCSC view of the same matrix must agree.
	dsup := RowSupport(m.ToDCSC())
	if len(dsup) != len(sup) {
		t.Fatalf("DCSC RowSupport size %d, want %d", len(dsup), len(sup))
	}
}

// TestColSubsetViewWire: the lazy view must serialize byte-identically to a
// materialized matrix with the unlisted columns emptied, CommBytes must equal
// the encoded length, and both in-memory formats of the source must agree —
// across shapes on both sides of the hypersparse wire threshold.
func TestColSubsetViewWire(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for it := 0; it < 60; it++ {
		rows := int32(1 + rng.Intn(48))
		cols := int32(1 + rng.Intn(300))
		nnz := rng.Intn(2 * int(cols))
		m := randomNNZCSC(t, rows, cols, nnz, int64(500+it))

		// A random ascending subset (sometimes empty, sometimes everything).
		var sub []int32
		for j := int32(0); j < cols; j++ {
			if rng.Intn(3) > 0 {
				sub = append(sub, j)
			}
		}

		ref := subsetReference(m, sub)
		want := ref.Serialize()

		for _, src := range []Matrix{m, m.ToDCSC()} {
			v := &ColSubsetView{M: src, Cols: sub}
			got := v.Serialize()
			if !bytes.Equal(got, want) {
				t.Fatalf("it %d (%v, %d cols kept): subset wire differs from materialized subset", it, src, len(sub))
			}
			if v.CommBytes() != int64(len(got)) {
				t.Fatalf("it %d: CommBytes %d, encoded %d", it, v.CommBytes(), len(got))
			}
			if v.NNZ() != ref.NNZ() {
				t.Fatalf("it %d: subset NNZ %d, want %d", it, v.NNZ(), ref.NNZ())
			}
			dec, err := DeserializeMatrix(got)
			if err != nil {
				t.Fatalf("it %d: decode subset: %v", it, err)
			}
			if !Equal(ref, dec.ToCSC()) {
				t.Fatalf("it %d: decoded subset differs", it)
			}
		}

		if !bytes.Equal(MatColSubsetSerialize(m, sub), want) {
			t.Fatalf("it %d: MatColSubsetSerialize differs from view", it)
		}
	}
}

// TestSerializeIntoReuse: SerializeInto must reuse a caller buffer with
// enough capacity (no allocation, same bytes) even when the buffer is dirty.
func TestSerializeIntoReuse(t *testing.T) {
	m := randomNNZCSC(t, 32, 200, 60, 3)
	sub := RowSupport(Transpose(m)) // any ascending in-range list
	v := &ColSubsetView{M: m, Cols: sub}
	want := v.Serialize()
	buf := make([]byte, len(want)+13)
	for i := range buf {
		buf[i] = 0xAA
	}
	got := (&ColSubsetView{M: m, Cols: sub}).SerializeInto(buf)
	if !bytes.Equal(got, want) {
		t.Fatal("SerializeInto into dirty buffer differs from Serialize")
	}
	if &got[0] != &buf[0] {
		t.Fatal("SerializeInto allocated despite sufficient capacity")
	}
}

// TestDeserializeMatrixInto: arena decodes must agree with heap decodes for
// both wire encodings, and a warmed-up arena must decode with zero heap
// allocations — the property the steady-state receive loop relies on.
func TestDeserializeMatrixInto(t *testing.T) {
	var a Arena
	rng := rand.New(rand.NewSource(8))
	for it := 0; it < 40; it++ {
		rows := int32(1 + rng.Intn(48))
		cols := int32(1 + rng.Intn(400))
		nnz := rng.Intn(2 * int(cols))
		m := randomNNZCSC(t, rows, cols, nnz, int64(2000+it))
		buf := m.Serialize()

		got, err := DeserializeMatrixInto(buf, &a)
		if err != nil {
			t.Fatalf("it %d: DeserializeMatrixInto: %v", it, err)
		}
		heap, err := DeserializeMatrix(buf)
		if err != nil {
			t.Fatalf("it %d: DeserializeMatrix: %v", it, err)
		}
		if got.Format() != heap.Format() {
			t.Fatalf("it %d: arena decode format %v, heap %v", it, got.Format(), heap.Format())
		}
		if !Equal(heap.ToCSC(), got.ToCSC()) {
			t.Fatalf("it %d: arena decode differs from heap decode", it)
		}
	}
}

func TestDeserializeMatrixIntoZeroAlloc(t *testing.T) {
	var a Arena
	hyper := randomNNZCSC(t, 16, 300, 40, 1).Serialize()
	dense := randomNNZCSC(t, 16, 20, 80, 2).Serialize()
	for _, tc := range []struct {
		name string
		buf  []byte
	}{{"hyper", hyper}, {"dense", dense}} {
		if _, err := DeserializeMatrixInto(tc.buf, &a); err != nil { // warm up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := DeserializeMatrixInto(tc.buf, &a); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warmed arena decode allocates %.1f times per run, want 0", tc.name, allocs)
		}
	}
}

// TestNonEmptyColsInvalidation: the regression test for the stale-memo bug —
// a mutation after the memo is filled must not leave CommBytes metering the
// old occupancy, and Validate must catch a memo that was not invalidated.
func TestNonEmptyColsInvalidation(t *testing.T) {
	m := randomNNZCSC(t, 16, 120, 40, 9)
	before := m.CommBytes() // fills the memo
	m.Filter(func(_, j int32, _ float64) bool { return j%2 == 0 })
	if err := m.Validate(); err != nil {
		t.Fatalf("Filter left an inconsistent matrix: %v", err)
	}
	after := m.CommBytes()
	if want := m.Clone().CommBytes(); after != want {
		t.Fatalf("CommBytes after Filter = %d, fresh clone says %d (stale memo, was %d)", after, want, before)
	}

	// A mutator that forgets to invalidate must be caught by Validate.
	m2 := randomNNZCSC(t, 16, 120, 40, 10)
	m2.NonEmptyCols() // fill memo
	// Empty the last non-empty column by hand, bypassing Filter.
	for j := m2.Cols - 1; j >= 0; j-- {
		if m2.ColNNZ(j) > 0 && m2.ColPtr[j] == m2.NNZ()-m2.ColNNZ(j) {
			cut := m2.ColPtr[j]
			for k := j; k < m2.Cols; k++ {
				m2.ColPtr[k+1] = cut
			}
			m2.RowIdx = m2.RowIdx[:cut]
			m2.Val = m2.Val[:cut]
			break
		}
	}
	if err := m2.Validate(); err == nil {
		t.Fatal("Validate accepted a stale NonEmptyCols memo")
	}
	m2.InvalidateNonEmptyCols()
	if err := m2.Validate(); err != nil {
		t.Fatalf("Validate after InvalidateNonEmptyCols: %v", err)
	}
}

// NNZ returns the number of entries the subset carries.
func (v *ColSubsetView) NNZ() int64 {
	_, nnz := v.stat()
	return nnz
}
