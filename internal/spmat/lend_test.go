package spmat

import (
	"math"
	"slices"
	"testing"
)

// TestReleasedDealReadsPoisoned releases lent grids, both formats, with
// every doubly-compressed block's AUX array built (as a multiply's lookups
// build it), and holds every array the blocks and their AUX reach — up to its
// capacity — to the poison: rows, pointers, stored columns and AUX −1, values
// NaN. A block read after its grid was released fails whatever it takes part
// in.
func TestReleasedDealReadsPoisoned(t *testing.T) {
	defer PoisonReleased.Store(PoisonReleased.Swap(true))
	m := kmerCSC(t, 256, 8192, 6, 3)
	rowB, colB := PartBounds(m.Rows, 2), PartBounds(m.Cols, 3)
	for _, f := range []Format{FormatCSC, FormatDCSC} {
		blocks := LendGrid(m, rowB, colB, f)
		var aux int
		for _, b := range blocks {
			if d, ok := b.(*DCSC); ok && len(d.JC) > 0 {
				d.Locate(d.JC[:1], make([]int32, 1))
				aux++
			}
		}
		if f == FormatDCSC && aux == 0 {
			t.Fatal("no doubly-compressed block built an AUX array")
		}
		// Checked before the next deal, which may draw the same arrays.
		ReleaseGrid(blocks)
		for i, b := range blocks {
			var ok bool
			switch b := b.(type) {
			case *CSC:
				ok = allOf(b.ColPtr, -1) && allOf(b.RowIdx, -1) && allNaN(b.Val)
			case *DCSC:
				ok = allOf(b.JC, -1) && allOf(b.CP, -1) && allOf(b.IR, -1) && allNaN(b.Num)
				if ix := b.aux.Load(); ix != nil {
					ok = ok && allOf(ix.start, -1)
				}
			}
			if !ok {
				t.Errorf("format %v: block %d (%v) reads unpoisoned after its grid was released", f, i, b)
			}
		}
	}
}

// allOf reports whether a holds v everywhere up to its capacity.
func allOf[T int32 | int64](a []T, v T) bool {
	return !slices.ContainsFunc(a[:cap(a)], func(x T) bool { return x != v })
}

// allNaN reports whether a holds NaN everywhere up to its capacity.
func allNaN(a []float64) bool {
	return !slices.ContainsFunc(a[:cap(a)], func(x float64) bool { return !math.IsNaN(x) })
}

// TestRedealtArraysHoldOnlyTheNewDeal deals a matrix, releases the grid
// unpoisoned, and deals a slightly smaller matrix over the same bounds: the
// second grid draws the first's arrays, larger than it asks for and full of
// the first grid's entries. Every block must equal the block cut from the
// matrix on its own, and see exactly its lengths — entries, stored columns
// and pointers — not the capacity it drew: a reused column pointer array
// that still held the first grid's ends, or a block handed the whole of an
// array, would show here.
func TestRedealtArraysHoldOnlyTheNewDeal(t *testing.T) {
	defer PoisonReleased.Store(PoisonReleased.Swap(false))
	first := skewedCSC(t, 300, 400, 40, 6000, false, 5)
	second := skewedCSC(t, 300, 400, 40, 5000, false, 6)
	rowB, colB := PartBounds(300, 3), PartBounds(400, 4)
	for _, f := range []Format{FormatCSC, FormatDCSC, FormatAuto} {
		before := IdleDealBytes()
		ReleaseGrid(LendGrid(first, rowB, colB, f))
		if IdleDealBytes() < before {
			t.Fatalf("format %v: dealing and releasing a grid left %d idle bytes, %d before", f, IdleDealBytes(), before)
		}
		blocks := LendGrid(second, rowB, colB, f)
		for r := range len(rowB) - 1 {
			for c := range len(colB) - 1 {
				b := blocks[r*(len(colB)-1)+c]
				want := cutBlock(t, second, rowB[r], rowB[r+1], colB[c], colB[c+1])
				if !Equal(b.ToCSC(), want) {
					t.Errorf("format %v: block (%d, %d) differs from the block cut alone", f, r, c)
				}
				var lengths bool
				switch b := b.(type) {
				case *CSC:
					lengths = len(b.ColPtr) == int(b.Cols)+1 && int64(len(b.RowIdx)) == want.NNZ() && len(b.Val) == len(b.RowIdx)
				case *DCSC:
					lengths = len(b.CP) == len(b.JC)+1 && int64(len(b.IR)) == want.NNZ() && len(b.Num) == len(b.IR)
				}
				if !lengths {
					t.Errorf("format %v: block (%d, %d) %v sees other lengths than its own", f, r, c, b)
				}
			}
		}
		ReleaseGrid(blocks)
	}
}

// cutBlock is rows [r0, r1) × columns [c0, c1) of m under local indices,
// built from m's entries one by one.
func cutBlock(t *testing.T, m *CSC, r0, r1, c0, c1 int32) *CSC {
	t.Helper()
	var ts []Triple
	for _, x := range m.Triples() {
		if x.Row >= r0 && x.Row < r1 && x.Col >= c0 && x.Col < c1 {
			ts = append(ts, Triple{Row: x.Row - r0, Col: x.Col - c0, Val: x.Val})
		}
	}
	b, err := FromTriples(r1-r0, c1-c0, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSplitGridNeverDraws fills the free list with a lent grid's arrays, AUX
// built, and then deals the same matrix with SplitGrid, whose grids callers keep: the
// deal, and the AUX arrays its doubly-compressed blocks build, must take
// nothing from the list and allocate every array at exactly its length — a
// drawn array may be up to twice as large, which a kept grid would pin.
func TestSplitGridNeverDraws(t *testing.T) {
	m := kmerCSC(t, 256, 8192, 6, 3)
	larger := kmerCSC(t, 320, 8192, 6, 4)
	rowB, colB := PartBounds(m.Rows, 2), PartBounds(m.Cols, 3)
	for _, f := range []Format{FormatCSC, FormatDCSC, FormatAuto} {
		lent := LendGrid(larger, PartBounds(larger.Rows, 2), colB, f)
		for _, b := range lent {
			if d, ok := b.(*DCSC); ok && len(d.JC) > 0 {
				d.Locate(d.JC[:1], make([]int32, 1))
			}
		}
		ReleaseGrid(lent)
		before := IdleDealBytes()
		if before == 0 {
			t.Fatalf("format %v: a released grid left the free list empty", f)
		}
		for i, b := range SplitGrid(m, rowB, colB, f) {
			var exact bool
			switch b := b.(type) {
			case *CSC:
				exact = cap(b.ColPtr) == len(b.ColPtr) && cap(b.RowIdx) == len(b.RowIdx) && cap(b.Val) == len(b.Val)
			case *DCSC:
				exact = cap(b.JC) == len(b.JC) && cap(b.CP) == len(b.CP) && cap(b.IR) == len(b.IR) && cap(b.Num) == len(b.Num)
				if len(b.JC) > 0 {
					b.Locate(b.JC[:1], make([]int32, 1))
					ix := b.aux.Load()
					exact = exact && cap(ix.start) == len(ix.start)
				}
			}
			if !exact {
				t.Errorf("format %v: block %d (%v) holds an array larger than its length", f, i, b)
			}
		}
		if after := IdleDealBytes(); after != before {
			t.Errorf("format %v: SplitGrid took %d bytes from the free list", f, before-after)
		}
	}
}
