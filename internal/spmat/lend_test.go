package spmat

import (
	"math"
	"slices"
	"testing"
	"unsafe"
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
		releaseGrid(blocks)
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

// releaseGrid releases every block of a lent grid.
func releaseGrid(blocks []Matrix) {
	for _, b := range blocks {
		Release(b)
	}
}

// drainIdle empties the free list of arrays.
func drainIdle() {
	idle.Lock()
	defer idle.Unlock()
	idle.i32, idle.i64, idle.f64, idle.bytes = classes[int32]{}, classes[int64]{}, classes[float64]{}, 0
}

// TestReleaseGivesBackOnce: a lent matrix's header holds its shell until
// Release takes it, so releasing it a second time — after its shell and
// arrays went to the next lent matrix — gives back nothing, and neither does
// releasing a view cut from it or an owned matrix. Checked by array identity
// on an emptied free list, both formats: the next lent gather draws the first
// one's arrays, and after the releases that must do nothing the list holds
// the same bytes and a third gather draws none of the second's arrays, which
// still read the matrix.
func TestReleaseGivesBackOnce(t *testing.T) {
	defer PoisonReleased.Store(PoisonReleased.Swap(false))
	defer drainIdle()
	m := kmerCSC(t, 64, 2048, 6, 5)
	whole := func(int) (int32, int32) { return 0, m.Cols }
	for _, src := range []Matrix{m, m.ToDCSC()} {
		drainIdle()
		first := GatherColRanges(src, 1, whole, true)
		views := MatColRanges(first, []int32{0, 100, m.Cols})
		// The first view's metadata starts the buffers the views carve.
		given := gridArrays([]Matrix{first, views[0]})
		Release(first)
		second := GatherColRanges(src, 1, whole, true)
		held := gridArrays([]Matrix{second})
		for id := range held {
			if !given[id] {
				t.Fatalf("%v: the second gather did not draw the arrays the first gave back", src.Format())
			}
		}
		before := IdleBytes()
		Release(first)
		Release(views[0])
		Release(views[1])
		Release(src)
		if after := IdleBytes(); after != before {
			t.Errorf("%v: releasing a released matrix, its views and an owned one gave back %d bytes", src.Format(), after-before)
		}
		third := GatherColRanges(src, 1, whole, true)
		for id := range gridArrays([]Matrix{third}) {
			if held[id] {
				t.Errorf("%v: the third gather drew an array the second still holds", src.Format())
			}
		}
		if !Equal(second.ToCSC(), m) || !Equal(third.ToCSC(), m) {
			t.Errorf("%v: a lent gather no longer reads the matrix", src.Format())
		}
		Release(second)
		Release(third)
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
// second grid draws the first's arrays — at least half of them, by identity
// — larger than it asks for and full of the first grid's entries. Every
// block must equal the block cut from the matrix on its own, and see exactly
// its lengths — entries, stored columns and pointers — not the capacity it
// drew: a reused column pointer array that still held the first grid's ends,
// or a block handed the whole of an array, would show here.
func TestRedealtArraysHoldOnlyTheNewDeal(t *testing.T) {
	defer PoisonReleased.Store(PoisonReleased.Swap(false))
	first := skewedCSC(t, 300, 400, 40, 6000, false, 5)
	second := skewedCSC(t, 300, 400, 40, 5000, false, 6)
	rowB, colB := PartBounds(300, 3), PartBounds(400, 4)
	for _, f := range []Format{FormatCSC, FormatDCSC, FormatAuto} {
		firstGrid := LendGrid(first, rowB, colB, f)
		given := gridArrays(firstGrid)
		releaseGrid(firstGrid)
		blocks := LendGrid(second, rowB, colB, f)
		drawn := 0
		for id := range gridArrays(blocks) {
			if given[id] {
				drawn++
			}
		}
		if 2*drawn < len(given) {
			t.Fatalf("format %v: the second grid drew %d of the %d arrays the first gave back", f, drawn, len(given))
		}
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
		releaseGrid(blocks)
	}
}

// gridArrays is the set of the arrays the blocks hold, by the address of
// their memory.
func gridArrays(blocks []Matrix) map[unsafe.Pointer]bool {
	ids := map[unsafe.Pointer]bool{}
	for _, m := range blocks {
		switch b := m.(type) {
		case *CSC:
			ids[unsafe.Pointer(unsafe.SliceData(b.ColPtr))] = true
			ids[unsafe.Pointer(unsafe.SliceData(b.RowIdx))] = true
			ids[unsafe.Pointer(unsafe.SliceData(b.Val))] = true
		case *DCSC:
			ids[unsafe.Pointer(unsafe.SliceData(b.JC))] = true
			ids[unsafe.Pointer(unsafe.SliceData(b.CP))] = true
			ids[unsafe.Pointer(unsafe.SliceData(b.IR))] = true
			ids[unsafe.Pointer(unsafe.SliceData(b.Num))] = true
		}
	}
	delete(ids, nil)
	return ids
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
		releaseGrid(lent)
		before := IdleBytes()
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
		if after := IdleBytes(); after != before {
			t.Errorf("format %v: SplitGrid took %d bytes from the free list", f, before-after)
		}
	}
}

// TestFreeListKeepsOneBound gives back more than the one free list may keep
// — the arrays of a released grid and then, as the kernels give them (Give),
// entry and metadata arrays of every element type, 96 MiB
// between them, with one array above MaxKeptEntries — and holds the list to
// its bounds together: at most maxIdleBytes, no array above MaxKeptEntries,
// at most maxIdleArrays a type, each array in its capacity class, its count
// equal to what the lists hold, and at least half the bound kept. Then it draws
// everything back out by its exact capacity: every draw is a kept array, and
// the count falls to zero.
func TestFreeListKeepsOneBound(t *testing.T) {
	defer PoisonReleased.Store(PoisonReleased.Swap(false))
	drainIdle()
	defer drainIdle()
	m := kmerCSC(t, 256, 8192, 6, 3)
	releaseGrid(LendGrid(m, PartBounds(m.Rows, 2), PartBounds(m.Cols, 3), FormatDCSC))
	Give(make([]int32, MaxKeptEntries+1))
	for range 96 {
		Give(make([]int32, 1<<17), make([]int32, 1<<15))
		Give(make([]int64, 1<<15))
		Give(make([]float64, 1<<17))
	}
	idle.Lock()
	caps32, held32 := idleCaps(t, &idle.i32)
	caps64, held64 := idleCaps(t, &idle.i64)
	capsF, heldF := idleCaps(t, &idle.f64)
	counted := idle.bytes
	idle.Unlock()
	if held := held32 + held64 + heldF; counted != held {
		t.Errorf("the list counts %d bytes and holds %d", counted, held)
	}
	if counted > maxIdleBytes || counted < maxIdleBytes/2 {
		t.Errorf("the list holds %d bytes of the 96 MiB given back, not within [%d, %d]", counted, maxIdleBytes/2, maxIdleBytes)
	}
	drawBack[int32](t, caps32)
	drawBack[int64](t, caps64)
	drawBack[float64](t, capsF)
	if left := IdleBytes(); left != 0 {
		t.Errorf("every idle array drawn back out, the list still counts %d bytes", left)
	}
}

// idleCaps holds one type's idle arrays to the list's bounds — each in its
// capacity class, no more than maxIdleArrays, as many as counted — and
// returns their capacities and bytes.
func idleCaps[T element](t *testing.T, l *classes[T]) (caps []int, bytes int64) {
	t.Helper()
	for k, arrays := range l.by {
		for _, a := range arrays {
			if cap(a) > MaxKeptEntries || class(cap(a)) != k {
				t.Errorf("%T: an idle array of %d entries in class %d", a, cap(a), k)
			}
			caps = append(caps, cap(a))
			bytes += arrayBytes(a)
		}
	}
	if len(caps) != l.n || l.n > maxIdleArrays {
		t.Errorf("%T: %d idle arrays, counted %d, cap %d", l, len(caps), l.n, maxIdleArrays)
	}
	return caps, bytes
}

// drawBack draws an array of every capacity in caps and holds each draw to
// be an idle array of exactly that capacity.
func drawBack[T element](t *testing.T, caps []int) {
	t.Helper()
	for _, c := range caps {
		if got := cap(Draw[T](c)); got != c {
			t.Fatalf("a draw of %d entries got a capacity of %d, not the idle array", c, got)
		}
	}
}
