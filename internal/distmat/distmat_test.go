package distmat

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/spmat"
)

func randomMat(t testing.TB, rows, cols int32, nnz int, seed int64) *spmat.CSC {
	if t != nil {
		t.Helper()
	}
	rng := rand.New(rand.NewSource(seed))
	ts := make([]spmat.Triple, 0, nnz)
	for i := 0; i < nnz; i++ {
		ts = append(ts, spmat.Triple{
			Row: int32(rng.Intn(int(rows))),
			Col: int32(rng.Intn(int(cols))),
			Val: float64(rng.Intn(9) + 1),
		})
	}
	m, err := spmat.FromTriples(rows, cols, ts, nil)
	if err != nil {
		panic(err)
	}
	return m
}

func TestADistributeAssembleRoundTrip(t *testing.T) {
	for _, shape := range []struct {
		rows, cols int32
		q, l       int
	}{
		{64, 64, 2, 2},
		{64, 64, 4, 1},
		{63, 61, 2, 2}, // ragged
		{50, 40, 2, 4},
		{17, 90, 3, 2},
	} {
		m := randomMat(t, shape.rows, shape.cols, int(shape.rows)*3, int64(shape.rows))
		d := NewADist(shape.rows, shape.cols, shape.q, shape.l)
		pieces := map[[3]int]*spmat.CSC{}
		var totalNNZ int64
		for i := 0; i < shape.q; i++ {
			for j := 0; j < shape.q; j++ {
				for k := 0; k < shape.l; k++ {
					p := d.Local(m, i, j, k)
					pieces[[3]int{i, j, k}] = p
					totalNNZ += p.NNZ()
				}
			}
		}
		if totalNNZ != m.NNZ() {
			t.Errorf("%+v: pieces have %d nnz, matrix has %d", shape, totalNNZ, m.NNZ())
		}
		if !spmat.Equal(d.Assemble(pieces), m) {
			t.Errorf("%+v: A-distribution round trip failed", shape)
		}
	}
}

func TestBDistributeAssembleRoundTrip(t *testing.T) {
	for _, shape := range []struct {
		rows, cols int32
		q, l       int
	}{
		{64, 64, 2, 2},
		{63, 61, 2, 2},
		{40, 50, 2, 4},
		{90, 17, 3, 2},
	} {
		m := randomMat(t, shape.rows, shape.cols, int(shape.rows)*3, int64(shape.cols))
		d := NewBDist(shape.rows, shape.cols, shape.q, shape.l)
		pieces := map[[3]int]*spmat.CSC{}
		var totalNNZ int64
		for i := 0; i < shape.q; i++ {
			for j := 0; j < shape.q; j++ {
				for k := 0; k < shape.l; k++ {
					p := d.Local(m, i, j, k)
					pieces[[3]int{i, j, k}] = p
					totalNNZ += p.NNZ()
				}
			}
		}
		if totalNNZ != m.NNZ() {
			t.Errorf("%+v: pieces have %d nnz, matrix has %d", shape, totalNNZ, m.NNZ())
		}
		if !spmat.Equal(d.Assemble(pieces), m) {
			t.Errorf("%+v: B-distribution round trip failed", shape)
		}
	}
}

func TestInnerDimensionSlicesAlign(t *testing.T) {
	// A's column slices must equal B's row slices for every (block, layer):
	// SUMMA stage s at layer k multiplies Ã from column block s (slice k)
	// with B̃ from row block s (slice k).
	const n = 57
	for _, ql := range [][2]int{{2, 2}, {3, 4}, {4, 1}} {
		q, l := ql[0], ql[1]
		a := NewADist(100, n, q, l)
		b := NewBDist(n, 80, q, l)
		for s := 0; s < q; s++ {
			for k := 0; k < l; k++ {
				alo, ahi := a.ColSliceOf(s, k)
				blo, bhi := b.RowSliceOf(s, k)
				if alo != blo || ahi != bhi {
					t.Errorf("q=%d l=%d block %d layer %d: A cols [%d,%d) vs B rows [%d,%d)",
						q, l, s, k, alo, ahi, blo, bhi)
				}
			}
		}
	}
}

func TestLocalShapes(t *testing.T) {
	// Divisible case: Ã is (n/q)×(n/(q·l)), B̃ is (n/(q·l))×(n/q) (Fig 1).
	const n = 48
	q, l := 2, 3
	m := randomMat(t, n, n, 200, 99)
	da := NewADist(n, n, q, l)
	db := NewBDist(n, n, q, l)
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			for k := 0; k < l; k++ {
				la := da.Local(m, i, j, k)
				if la.Rows != n/int32(q) || la.Cols != n/int32(q*l) {
					t.Errorf("Ã(%d,%d,%d) is %dx%d, want %dx%d", i, j, k, la.Rows, la.Cols, n/q, n/(q*l))
				}
				lb := db.Local(m, i, j, k)
				if lb.Rows != n/int32(q*l) || lb.Cols != n/int32(q) {
					t.Errorf("B̃(%d,%d,%d) is %dx%d, want %dx%d", i, j, k, lb.Rows, lb.Cols, n/(q*l), n/q)
				}
			}
		}
	}
}

func TestBatchingPartitionsAllColumns(t *testing.T) {
	for _, c := range []struct {
		width int32
		b, l  int
	}{
		{16, 2, 2}, {16, 4, 2}, {17, 2, 2}, {5, 4, 4}, {1, 2, 2}, {60, 3, 5},
	} {
		bt := NewBatching(c.width, c.b, c.l)
		seen := make([]bool, c.width)
		var n int
		for t2 := 0; t2 < c.b; t2++ {
			for _, o := range bt.BatchCols(t2) {
				if seen[o] {
					t.Errorf("%+v: column %d in two batches", c, o)
				}
				seen[o] = true
				n++
			}
		}
		if n != int(c.width) {
			t.Errorf("%+v: covered %d of %d columns", c, n, c.width)
		}
		// Batch+layer refines batch.
		for t2 := 0; t2 < c.b; t2++ {
			var m int
			for k := 0; k < c.l; k++ {
				m += len(bt.BatchLayerCols(t2, k))
			}
			if m != len(bt.BatchCols(t2)) {
				t.Errorf("%+v batch %d: layers cover %d of %d", c, t2, m, len(bt.BatchCols(t2)))
			}
		}
	}
}

func TestBatchingDegeneratesToSlices(t *testing.T) {
	// With b=1 and width divisible by l, the layer assignment is the
	// contiguous slicing of the A distribution.
	bt := NewBatching(12, 1, 3)
	for k := 0; k < 3; k++ {
		cols := bt.BatchLayerCols(0, k)
		if len(cols) != 4 {
			t.Fatalf("layer %d: %d cols", k, len(cols))
		}
		for x, o := range cols {
			if o != int32(k*4+x) {
				t.Errorf("layer %d not contiguous: %v", k, cols)
			}
		}
	}
}

func TestBatchingFig1iExample(t *testing.T) {
	// Fig 1(i): width 4 per process block (n=8, q=2), b=2, l=2 → blk=1.
	// Chunks 0..3 → batch (g mod 2), layer (g/2 mod 2):
	//  col 0: batch 0 layer 0; col 1: batch 1 layer 0;
	//  col 2: batch 0 layer 1; col 3: batch 1 layer 1.
	bt := NewBatching(4, 2, 2)
	if bt.Blk != 1 {
		t.Fatalf("blk=%d, want 1", bt.Blk)
	}
	if got := bt.BatchCols(0); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("batch 0 cols=%v, want [0 2]", got)
	}
	if got := bt.BatchCols(1); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("batch 1 cols=%v, want [1 3]", got)
	}
	if bt.LayerOf(0) != 0 || bt.LayerOf(2) != 1 {
		t.Error("layer assignment wrong")
	}
}

func TestSplitByLayer(t *testing.T) {
	m := randomMat(t, 10, 8, 40, 7)
	bt := NewBatching(m.Cols*2, 2, 2) // width 16, b=2, l=2, blk=4
	// Batch 0 columns: offsets {0..3, 8..11}; take the matching 8 columns.
	batchCols := bt.BatchCols(0)
	if int32(len(batchCols)) != m.Cols {
		t.Fatalf("batch has %d cols, fixture expects %d", len(batchCols), m.Cols)
	}
	pieces, offsets := bt.SplitByLayerMat(m, 0)
	if len(pieces) != 2 {
		t.Fatalf("pieces=%d", len(pieces))
	}
	var total int64
	for k, p := range pieces {
		total += p.NNZ()
		for x := range offsets[k] {
			if bt.LayerOf(offsets[k][x]) != k {
				t.Errorf("piece %d contains offset %d of layer %d", k, offsets[k][x], bt.LayerOf(offsets[k][x]))
			}
			_ = x
		}
	}
	if total != m.NNZ() {
		t.Errorf("pieces lost entries: %d vs %d", total, m.NNZ())
	}
}

func TestBatchingLoadBalance(t *testing.T) {
	// Block-cyclic batching keeps per-(batch,layer) column counts within one
	// chunk of each other — the Merge-Fiber balance motivation of Sec. IV-B.
	bt := NewBatching(64, 4, 4)
	min, max := int32(1<<30), int32(0)
	for t2 := 0; t2 < 4; t2++ {
		for k := 0; k < 4; k++ {
			n := int32(len(bt.BatchLayerCols(t2, k)))
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
	}
	if max-min > bt.Blk {
		t.Errorf("imbalance %d exceeds one chunk (%d)", max-min, bt.Blk)
	}
}

func TestBatchingPartitionProperty(t *testing.T) {
	// For random (width, b, l), the batch/layer assignment partitions the
	// columns, and piece sizes differ by at most one chunk.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := int32(rng.Intn(200) + 1)
		b := rng.Intn(8) + 1
		l := rng.Intn(8) + 1
		bt := NewBatching(width, b, l)
		seen := make([]bool, width)
		for t2 := 0; t2 < b; t2++ {
			for k := 0; k < l; k++ {
				for _, o := range bt.BatchLayerCols(t2, k) {
					if o < 0 || o >= width || seen[o] {
						return false
					}
					seen[o] = true
				}
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDistributionRoundTripProperty(t *testing.T) {
	// Random shapes and grids: Local + Assemble is the identity for both
	// distributions.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int32(rng.Intn(60) + 1)
		cols := int32(rng.Intn(60) + 1)
		q := rng.Intn(3) + 1
		l := rng.Intn(3) + 1
		m := randomMat(nil, rows, cols, rng.Intn(150), seed)
		da := NewADist(rows, cols, q, l)
		db := NewBDist(rows, cols, q, l)
		piecesA := map[[3]int]*spmat.CSC{}
		piecesB := map[[3]int]*spmat.CSC{}
		for i := 0; i < q; i++ {
			for j := 0; j < q; j++ {
				for k := 0; k < l; k++ {
					piecesA[[3]int{i, j, k}] = da.Local(m, i, j, k)
					piecesB[[3]int{i, j, k}] = db.Local(m, i, j, k)
				}
			}
		}
		return spmat.Equal(da.Assemble(piecesA), m) && spmat.Equal(db.Assemble(piecesB), m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// rangeOracle is the distribution this package used to be — the row range of
// the column range of the global matrix, converted to the requested format
// afterwards. It shares no code with spmat.SplitGrid, which is what Local,
// LocalMat and Split run on now.
func rangeOracle(global *spmat.CSC, r0, r1, c0, c1 int32, f spmat.Format) spmat.Matrix {
	return spmat.WithFormat(spmat.RowRange(spmat.ColRange(global, c0, c1), r0, r1), f)
}

// sameBlock reports how got differs from want: the same concrete format, the
// same wire bytes (shape, sortedness flag, every column's entries in order),
// valid, and — Validate cross-checks the memo — the right occupied-column
// count seeded.
func sameBlock(got, want spmat.Matrix) error {
	if got.Format() != want.Format() {
		return fmt.Errorf("stored %v, want %v", got.Format(), want.Format())
	}
	if !bytes.Equal(got.Serialize(), want.Serialize()) {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	if got.NonEmptyCols() != want.NonEmptyCols() {
		return fmt.Errorf("%d occupied columns, want %d", got.NonEmptyCols(), want.NonEmptyCols())
	}
	if c, ok := got.(*spmat.CSC); ok {
		return c.Validate()
	}
	return got.(*spmat.DCSC).Validate()
}

// unsorted returns m with every column's entries reversed and the flag down.
func unsorted(m *spmat.CSC) *spmat.CSC {
	u := m.Clone()
	for j := int32(0); j < u.Cols; j++ {
		rows, vals := u.Column(j)
		slices.Reverse(rows)
		slices.Reverse(vals)
	}
	u.SortedCols = false
	return u
}

// TestSplitAndLocalMatchRangeOracle holds the one-sweep Split and the fused
// Local/LocalMat, for both distributions, to the old per-rank range
// extraction: block by block the same format, bytes and metadata, over grids
// that do and do not divide the dimensions (down to slices with no rows or
// columns at all), sparse and dense-ish fill, sorted and unsorted globals,
// and every format request. Assemble of the split is the global matrix, and
// Count counts every piece Split dealt.
func TestSplitAndLocalMatchRangeOracle(t *testing.T) {
	globals := []*spmat.CSC{
		randomMat(t, 37, 53, 60, 1),   // most rows and columns empty
		randomMat(t, 53, 37, 900, 2),  // dense-ish
		randomMat(t, 5, 7, 12, 3),     // fewer rows and columns than slices
		randomMat(t, 48, 48, 300, 4),  // divisible by every grid below
		spmat.New(19, 23),             // empty
		randomMat(t, 8, 2000, 150, 5), // hypersparse
	}
	for _, sorted := range globals[:len(globals):len(globals)] {
		globals = append(globals, unsorted(sorted))
	}
	for gi, m := range globals {
		for _, q := range []int{1, 2, 3} {
			for _, l := range []int{1, 2, 4} {
				da := NewADist(m.Rows, m.Cols, q, l)
				db := NewBDist(m.Rows, m.Cols, q, l)
				piecesA, piecesB := map[[3]int]*spmat.CSC{}, map[[3]int]*spmat.CSC{}
				nnzA, neA := da.Count(m)
				nnzB, neB := db.Count(m)
				for _, f := range []spmat.Format{spmat.FormatAuto, spmat.FormatCSC, spmat.FormatDCSC} {
					splitA, splitB := da.Split(m, f), db.Split(m, f)
					if len(splitA) != q*q*l || len(splitB) != q*q*l {
						t.Fatalf("global %d q=%d l=%d: split into %d and %d blocks", gi, q, l, len(splitA), len(splitB))
					}
					for i := 0; i < q; i++ {
						for j := 0; j < q; j++ {
							for k := 0; k < l; k++ {
								ar0, ar1 := da.RowRangeOf(i)
								ac0, ac1 := da.ColSliceOf(j, k)
								br0, br1 := db.RowSliceOf(i, k)
								bc0, bc1 := db.ColRangeOf(j)
								for _, c := range []struct {
									name      string
									got, want spmat.Matrix
								}{
									{"ADist.Split", splitA[da.Index(i, j, k)], rangeOracle(m, ar0, ar1, ac0, ac1, f)},
									{"ADist.LocalMat", da.LocalMat(m, i, j, k, f), rangeOracle(m, ar0, ar1, ac0, ac1, f)},
									{"ADist.Local", da.Local(m, i, j, k), rangeOracle(m, ar0, ar1, ac0, ac1, spmat.FormatCSC)},
									{"BDist.Split", splitB[db.Index(i, j, k)], rangeOracle(m, br0, br1, bc0, bc1, f)},
									{"BDist.LocalMat", db.LocalMat(m, i, j, k, f), rangeOracle(m, br0, br1, bc0, bc1, f)},
									{"BDist.Local", db.Local(m, i, j, k), rangeOracle(m, br0, br1, bc0, bc1, spmat.FormatCSC)},
								} {
									if err := sameBlock(c.got, c.want); err != nil {
										t.Fatalf("global %d q=%d l=%d format %v: %s(%d,%d,%d): %v", gi, q, l, f, c.name, i, j, k, err)
									}
								}
								if x, y := da.Index(i, j, k), db.Index(i, j, k); f == spmat.FormatAuto &&
									(nnzA[x] != splitA[x].NNZ() || neA[x] != splitA[x].NonEmptyCols() || nnzB[y] != splitB[y].NNZ() || neB[y] != splitB[y].NonEmptyCols()) {
									t.Fatalf("global %d q=%d l=%d: Count(%d,%d,%d) is A %d/%d, B %d/%d; Split dealt %v and %v", gi, q, l, i, j, k, nnzA[x], neA[x], nnzB[y], neB[y], splitA[x], splitB[y])
								}
								piecesA[[3]int{i, j, k}] = splitA[da.Index(i, j, k)].ToCSC()
								piecesB[[3]int{i, j, k}] = splitB[db.Index(i, j, k)].ToCSC()
							}
						}
					}
					if !spmat.Equal(da.Assemble(piecesA), m) || !spmat.Equal(db.Assemble(piecesB), m) {
						t.Fatalf("global %d q=%d l=%d format %v: Assemble(Split) is not the global matrix", gi, q, l, f)
					}
				}
			}
		}
	}
}

// BatchOf returns the batch owning local column offset o: the per-offset
// definition of the block-cyclic layout the chunk arithmetic is checked against.
func (bt Batching) BatchOf(o int32) int { return int(o/bt.Blk) % bt.B }

// LayerOf returns the layer owning local column offset o (within its batch).
func (bt Batching) LayerOf(o int32) int { return int(o/bt.Blk) / bt.B % bt.L }

// TestBatchingArithmeticMatchesDefinition holds the arithmetic BatchCols,
// BatchLayerCols, LayerBounds and BatchWidth to the definition they replace —
// every offset filtered through BatchOf and LayerOf — including block columns
// narrower than b·l, and checks the lists are allocated at their exact size.
func TestBatchingArithmeticMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		width := int32(rng.Intn(300))
		b, l := rng.Intn(9)+1, rng.Intn(9)+1
		bt := NewBatching(width, b, l)
		for t2 := 0; t2 < b; t2++ {
			var batch []int32
			perLayer := make([][]int32, l)
			for o := int32(0); o < width; o++ {
				if bt.BatchOf(o) == t2 {
					batch = append(batch, o)
					perLayer[bt.LayerOf(o)] = append(perLayer[bt.LayerOf(o)], o)
				}
			}
			got := bt.BatchCols(t2)
			if !slices.Equal(got, batch) || cap(got) != len(batch) || bt.BatchWidth(t2) != int32(len(batch)) {
				t.Fatalf("%+v batch %d: BatchCols %v (cap %d, width %d), definition gives %v", bt, t2, got, cap(got), bt.BatchWidth(t2), batch)
			}
			bounds := bt.LayerBounds(t2, nil)
			for k := 0; k < l; k++ {
				if got := bt.BatchLayerCols(t2, k); !slices.Equal(got, perLayer[k]) || cap(got) != len(perLayer[k]) {
					t.Fatalf("%+v batch %d layer %d: BatchLayerCols %v (cap %d), definition gives %v", bt, t2, k, got, cap(got), perLayer[k])
				}
				if n := bounds[k+1] - bounds[k]; n != int32(len(perLayer[k])) {
					t.Fatalf("%+v batch %d layer %d: LayerBounds %v give %d columns, definition gives %d", bt, t2, k, bounds, n, len(perLayer[k]))
				}
			}
			if len(bounds) != l+1 || bounds[0] != 0 {
				t.Fatalf("%+v batch %d: LayerBounds %v", bt, t2, bounds)
			}
		}
	}
}

// TestPieceMatchesGather holds the batch piece — a bulk copy per chunk — to
// the gather of the batch's column list (MatColSelect over BatchCols), in
// both formats, lent or not, including block columns narrower than b·l,
// whose last batches are empty.
func TestPieceMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 120; trial++ {
		width := int32(rng.Intn(200) + 1)
		b, l := rng.Intn(6)+1, rng.Intn(5)+1
		bt := NewBatching(width, b, l)
		csc := randomMat(t, 11, width, rng.Intn(3*int(width)), int64(trial))
		for _, m := range []spmat.Matrix{csc, csc.ToDCSC()} {
			for t2 := 0; t2 < b; t2++ {
				want := spmat.MatColSelect(m, bt.BatchCols(t2))
				for _, lend := range []bool{false, true} {
					piece := bt.Piece(m, t2, lend)
					if err := sameBlock(piece, want); err != nil {
						t.Fatalf("%+v batch %d (%v, lend %v): %v", bt, t2, m.Format(), lend, err)
					}
					spmat.Release(piece)
				}
			}
		}
	}
}

// TestSplitByLayerMatMatchesGather holds the fiber split — consecutive column
// ranges, returned as views — to the gather it replaces: one MatColSelect per
// layer over the batch columns LayerOf assigns to it, in both formats. With a
// single layer the piece is the operand itself.
func TestSplitByLayerMatMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 120; trial++ {
		width := int32(rng.Intn(120) + 1)
		b, l := rng.Intn(4)+1, rng.Intn(5)+1
		bt := NewBatching(width, b, l)
		for t2 := 0; t2 < b; t2++ {
			cols := bt.BatchCols(t2)
			csc := randomMat(t, 9, int32(len(cols))+1, rng.Intn(3*len(cols)+1), int64(trial))
			csc = spmat.ColRange(csc, 0, int32(len(cols))) // batches can be empty; randomMat cannot
			for _, m := range []spmat.Matrix{csc, csc.ToDCSC()} {
				pieces, offsets := bt.SplitByLayerMat(m, t2)
				if l == 1 && pieces[0] != m {
					t.Fatalf("%+v: single-layer split copied the batch", bt)
				}
				for k := 0; k < l; k++ {
					var idx []int32
					for x, o := range cols {
						if bt.LayerOf(o) == k {
							idx = append(idx, int32(x))
						}
					}
					if err := sameBlock(pieces[k], spmat.MatColSelect(m, idx)); err != nil {
						t.Fatalf("%+v batch %d layer %d (%v): %v", bt, t2, k, m.Format(), err)
					}
					if !slices.Equal(offsets[k], bt.BatchLayerCols(t2, k)) {
						t.Fatalf("%+v batch %d layer %d: offsets %v", bt, t2, k, offsets[k])
					}
				}
			}
		}
	}
}

// Assemble reconstructs the global matrix from the per-coordinate local
// pieces (inverse of Local); used to validate distributions.
func (d *ADist) Assemble(pieces map[[3]int]*spmat.CSC) *spmat.CSC {
	var ts []spmat.Triple
	for coord, m := range pieces {
		i, j, k := coord[0], coord[1], coord[2]
		r0, _ := d.RowRangeOf(i)
		c0, _ := d.ColSliceOf(j, k)
		for _, t := range m.Triples() {
			ts = append(ts, spmat.Triple{Row: t.Row + r0, Col: t.Col + c0, Val: t.Val})
		}
	}
	out, err := spmat.FromTriples(d.Rows, d.Cols, ts, nil)
	if err != nil {
		panic(err)
	}
	return out
}

// Assemble reconstructs the global matrix from per-coordinate local pieces.
func (d *BDist) Assemble(pieces map[[3]int]*spmat.CSC) *spmat.CSC {
	var ts []spmat.Triple
	for coord, m := range pieces {
		i, j, k := coord[0], coord[1], coord[2]
		r0, _ := d.RowSliceOf(i, k)
		c0, _ := d.ColRangeOf(j)
		for _, t := range m.Triples() {
			ts = append(ts, spmat.Triple{Row: t.Row + r0, Col: t.Col + c0, Val: t.Val})
		}
	}
	out, err := spmat.FromTriples(d.Rows, d.Cols, ts, nil)
	if err != nil {
		panic(err)
	}
	return out
}
