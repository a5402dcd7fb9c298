package spmat

import (
	"math/rand"
	"sync"
	"testing"
)

// randomNNZCSC builds a random rows×cols matrix with about nnz entries.
func randomNNZCSC(t testing.TB, rows, cols int32, nnz int, seed int64) *CSC {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := make([]Triple, 0, nnz)
	for i := 0; i < nnz; i++ {
		ts = append(ts, Triple{
			Row: int32(rng.Intn(int(rows))),
			Col: int32(rng.Intn(int(cols))),
			Val: rng.Float64()*10 - 5,
		})
	}
	m, err := FromTriples(rows, cols, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDCSCRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		rows, cols int32
		nnz        int
	}{
		{1, 1, 0},      // empty
		{5, 7, 0},      // empty rectangular
		{16, 16, 40},   // dense-ish
		{8, 1024, 60},  // hypersparse
		{64, 4096, 90}, // very hypersparse
	} {
		m := randomNNZCSC(t, tc.rows, tc.cols, tc.nnz, int64(tc.nnz)+3)
		d := m.ToDCSC()
		if err := d.Validate(); err != nil {
			t.Fatalf("%dx%d: invalid DCSC: %v", tc.rows, tc.cols, err)
		}
		if d.NNZ() != m.NNZ() || d.NonEmptyCols() != m.NonEmptyCols() {
			t.Fatalf("%dx%d: nnz/nzc mismatch after conversion", tc.rows, tc.cols)
		}
		back := d.ToCSC()
		if err := back.Validate(); err != nil {
			t.Fatalf("%dx%d: invalid CSC after round trip: %v", tc.rows, tc.cols, err)
		}
		if !Equal(m, back) {
			t.Fatalf("%dx%d: round trip changed the matrix", tc.rows, tc.cols)
		}
		if back.NonEmptyCols() != m.NonEmptyCols() {
			t.Fatalf("%dx%d: ToCSC mis-seeded the non-empty-column cache", tc.rows, tc.cols)
		}
	}
}

func TestDCSCColumnLookup(t *testing.T) {
	m := randomNNZCSC(t, 32, 512, 80, 5)
	d := m.ToDCSC()
	for j := int32(0); j < m.Cols; j++ {
		wr, wv := m.Column(j)
		gr, gv := d.Column(j)
		if len(wr) != len(gr) || d.ColNNZ(j) != m.ColNNZ(j) {
			t.Fatalf("column %d: size mismatch", j)
		}
		for p := range wr {
			if wr[p] != gr[p] || wv[p] != gv[p] {
				t.Fatalf("column %d entry %d differs", j, p)
			}
		}
	}
}

func TestEnumColsMatchesAcrossFormats(t *testing.T) {
	m := randomNNZCSC(t, 16, 300, 50, 9)
	d := m.ToDCSC()
	type col struct {
		j    int32
		rows []int32
	}
	collect := func(x Matrix) []col {
		var out []col
		x.EnumCols(func(j int32, rows []int32, _ []float64) {
			out = append(out, col{j, rows})
		})
		return out
	}
	cs, ds := collect(m), collect(d)
	if len(cs) != len(ds) || int64(len(cs)) != m.NonEmptyCols() {
		t.Fatalf("stored column counts differ: csc %d, dcsc %d, want %d", len(cs), len(ds), m.NonEmptyCols())
	}
	prev := int32(-1)
	for i := range cs {
		if cs[i].j != ds[i].j || len(cs[i].rows) != len(ds[i].rows) {
			t.Fatalf("stored column %d differs between formats", i)
		}
		if cs[i].j <= prev {
			t.Fatalf("EnumCols not ascending at %d", cs[i].j)
		}
		prev = cs[i].j
	}
}

func TestAutoFormatThreshold(t *testing.T) {
	// Exactly half the columns occupied: 2·ne == cols is NOT hypersparse
	// (strict inequality), one fewer occupied column is.
	build := func(cols, occupied int32) *CSC {
		ts := make([]Triple, 0, occupied)
		for j := int32(0); j < occupied; j++ {
			ts = append(ts, Triple{Row: 0, Col: j * 2, Val: 1})
		}
		m, err := FromTriples(4, cols, ts, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	half := build(64, 32)
	if got := AutoFormat(half); got.Format() != FormatCSC {
		t.Errorf("half occupancy: auto picked %v, want csc", got.Format())
	}
	under := build(64, 31)
	if got := AutoFormat(under); got.Format() != FormatDCSC {
		t.Errorf("under-half occupancy: auto picked %v, want dcsc", got.Format())
	}
	// WithFormat forces either way and auto matches AutoFormat.
	if WithFormat(half, FormatDCSC).Format() != FormatDCSC {
		t.Error("WithFormat(dcsc) did not compress")
	}
	if WithFormat(under, FormatCSC).Format() != FormatCSC {
		t.Error("WithFormat(csc) did not inflate")
	}
}

func TestMatColSelectMatchesColSelect(t *testing.T) {
	m := randomNNZCSC(t, 24, 400, 70, 13)
	d := m.ToDCSC()
	cols := []int32{3, 17, 40, 41, 42, 100, 399}
	want := ColSelect(m, cols)
	got := MatColSelect(d, cols)
	if got.Format() != FormatDCSC {
		t.Fatalf("MatColSelect changed format: %v", got.Format())
	}
	if !Equal(want, got.ToCSC()) {
		t.Fatal("MatColSelect(dcsc) differs from ColSelect(csc)")
	}
	if gotCSC := MatColSelect(m, cols); !Equal(want, gotCSC.ToCSC()) {
		t.Fatal("MatColSelect(csc) differs from ColSelect")
	}
	// Selections need not ascend.
	shuffled := []int32{42, 3, 399, 17}
	if !Equal(ColSelect(m, shuffled), MatColSelect(d, shuffled).ToCSC()) {
		t.Fatal("unordered MatColSelect differs from ColSelect")
	}
}

// TestMatColRangesMatchColRange holds the view-returning column cut to the
// copying ColRange in both formats — empty ranges, ranges that do not start
// at 0 or end at the last column — and pins what "view" means: entry storage
// shared with the operand, capacity capped at the piece's end, and the
// operand itself for a range that covers it.
func TestMatColRangesMatchColRange(t *testing.T) {
	m := randomNNZCSC(t, 24, 400, 300, 13)
	bounds := []int32{5, 5, 40, 41, 399, 399}
	for _, src := range []Matrix{m, m.ToDCSC()} {
		for k, piece := range MatColRanges(src, bounds) {
			want := ColRange(m, bounds[k], bounds[k+1])
			if piece.Format() != src.Format() || !Equal(piece.ToCSC(), want) || piece.Sorted() != want.Sorted() {
				t.Fatalf("%v piece %d [%d,%d): got %v, want %v", src.Format(), k, bounds[k], bounds[k+1], piece, want)
			}
			// Both formats lay the entries out alike, so the piece must start
			// at the same offset of its operand's row array.
			rows, from := piece.ToDCSC().IR, src.ToDCSC().IR
			if c, ok := piece.(*CSC); ok {
				rows, from = c.RowIdx, m.RowIdx
			}
			if len(rows) > 0 && (&rows[0] != &from[m.ColPtr[bounds[k]]] || cap(rows) != len(rows)) {
				t.Fatalf("%v piece %d is not a capped view of the operand's entries", src.Format(), k)
			}
		}
		if whole := MatColRanges(src, []int32{0, 400}); whole[0] != src {
			t.Fatalf("%v: a range covering every column copied the operand", src.Format())
		}
	}
}

// TestSplitGridMatchesRanges cuts windows and grids that do not cover the
// matrix and holds every block to RowRange(ColRange(m)): entries outside the
// bounds are dropped, everything else lands once.
func TestSplitGridMatchesRanges(t *testing.T) {
	for _, m := range []*CSC{randomNNZCSC(t, 40, 300, 500, 3), randomNNZCSC(t, 300, 40, 500, 4), New(6, 6)} {
		rowB := []int32{m.Rows / 5, m.Rows / 5, m.Rows / 2, m.Rows - 1}
		colB := []int32{1, m.Cols / 3, m.Cols / 3, m.Cols}
		for _, f := range []Format{FormatAuto, FormatCSC, FormatDCSC} {
			blocks := SplitGrid(m, rowB, colB, f)
			for r := 0; r+1 < len(rowB); r++ {
				for c := 0; c+1 < len(colB); c++ {
					got := blocks[r*(len(colB)-1)+c]
					want := WithFormat(RowRange(ColRange(m, colB[c], colB[c+1]), rowB[r], rowB[r+1]), f)
					if got.Format() != want.Format() || !Equal(got.ToCSC(), want.ToCSC()) || got.NonEmptyCols() != want.NonEmptyCols() {
						t.Fatalf("%v format %v block (%d,%d): got %v, want %v", m, f, r, c, got, want)
					}
				}
			}
		}
	}
}

func TestNonEmptyColsCache(t *testing.T) {
	m := randomNNZCSC(t, 10, 100, 40, 21)
	want := m.NonEmptyCols()
	var slow int64
	for j := int32(0); j < m.Cols; j++ {
		if m.ColNNZ(j) > 0 {
			slow++
		}
	}
	if want != slow {
		t.Fatalf("NonEmptyCols = %d, scan says %d", want, slow)
	}
	if again := m.NonEmptyCols(); again != want {
		t.Fatalf("cached NonEmptyCols = %d, want %d", again, want)
	}
	// Filtering can empty columns and must invalidate the cache.
	m.Filter(func(_, col int32, _ float64) bool { return col%2 == 0 })
	var after int64
	for j := int32(0); j < m.Cols; j++ {
		if m.ColNNZ(j) > 0 {
			after++
		}
	}
	if got := m.NonEmptyCols(); got != after {
		t.Fatalf("after Filter: NonEmptyCols = %d, scan says %d (stale cache?)", got, after)
	}
}

func TestDCSCSortColumns(t *testing.T) {
	// Build an unsorted CSC, compress, sort in DCSC form.
	m := &CSC{
		Rows: 8, Cols: 16,
		ColPtr:     []int64{0, 0, 3, 3, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
		RowIdx:     []int32{5, 1, 3, 7, 2},
		Val:        []float64{1, 2, 3, 4, 5},
		SortedCols: false,
	}
	d := m.ToDCSC()
	if d.Sorted() {
		t.Fatal("conversion invented sortedness")
	}
	d.SortColumns()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	sorted := m.Clone()
	sorted.SortColumns()
	if !Equal(sorted, d.ToCSC()) {
		t.Fatal("DCSC SortColumns differs from CSC SortColumns")
	}
}

func TestDCSCMemBytesSmallerWhenHypersparse(t *testing.T) {
	// ~2 nnz per occupied column, most columns empty: the explicit DCSC
	// accounting must beat the flat r·nnz model.
	m := randomNNZCSC(t, 64, 4096, 600, 31)
	c, d := m.MemBytes(), m.ToDCSC().MemBytes()
	if d >= c {
		t.Fatalf("hypersparse DCSC footprint %d not below CSC %d", d, c)
	}
}

// scanFind is the oracle for column lookup: a linear scan of JC that shares
// nothing with the AUX chunk index.
func scanFind(d *DCSC, j int32) int {
	for p, c := range d.JC {
		if c == j {
			return p
		}
	}
	return -1
}

// checkLookup holds find, Column and ColNNZ of column j to the scan oracle.
func checkLookup(t *testing.T, d *DCSC, j int32) {
	t.Helper()
	want := scanFind(d, j)
	if got := d.find(j); got != want {
		t.Fatalf("%v: find(%d) = %d, scan says %d", d, j, got, want)
	}
	rows, vals := d.Column(j)
	if want < 0 {
		if len(rows) != 0 || len(vals) != 0 || d.ColNNZ(j) != 0 {
			t.Fatalf("%v: absent column %d returned entries", d, j)
		}
		return
	}
	lo, hi := d.CP[want], d.CP[want+1]
	if d.ColNNZ(j) != hi-lo || int64(len(rows)) != hi-lo || int64(len(vals)) != hi-lo ||
		&rows[0] != &d.IR[lo] || &vals[0] != &d.Num[lo] {
		t.Fatalf("%v: column %d is not a view of entries [%d,%d)", d, j, lo, hi)
	}
}

// checkEveryLookup checks every column index of a block whose width allows
// it, and otherwise every stored column, its two neighbours, both ends, one
// past each end, and a random sample.
func checkEveryLookup(t *testing.T, d *DCSC) {
	t.Helper()
	if d.Cols <= 1<<16 {
		for j := int32(-1); j <= d.Cols; j++ {
			checkLookup(t, d, j)
		}
		return
	}
	for _, c := range d.JC {
		for _, j := range []int32{c - 1, c, c + 1} {
			checkLookup(t, d, j)
		}
	}
	rng := rand.New(rand.NewSource(int64(d.Cols)))
	for i := 0; i < 4096; i++ {
		checkLookup(t, d, int32(rng.Intn(int(d.Cols))))
	}
	for _, j := range []int32{-1, 0, d.Cols - 1, d.Cols} {
		checkLookup(t, d, j)
	}
}

// dcscWithCols builds a block whose stored columns are exactly jc, two
// entries each.
func dcscWithCols(cols int32, jc []int32) *DCSC {
	d := &DCSC{Rows: 4, Cols: cols, JC: jc, CP: make([]int64, len(jc)+1), SortedCols: true}
	for p := range jc {
		d.CP[p+1] = d.CP[p] + 2
		d.IR = append(d.IR, 1, 3)
		d.Num = append(d.Num, float64(p), float64(-p))
	}
	return d
}

// TestDCSCAuxMatchesLinearScan holds the AUX chunk index behind
// find/Column/ColNNZ to a linear scan of JC, on the shapes that stress its
// chunking: no stored column, one, every column, all stored columns inside
// one chunk (the search inside a chunk is then over all of JC), and widths up
// to 2^30 with a handful stored.
func TestDCSCAuxMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	every := make([]int32, 300)
	for j := range every {
		every[j] = int32(j)
	}
	clustered := make([]int32, 200) // 200 neighbours in a 2^20-wide block
	for j := range clustered {
		clustered[j] = 700000 + int32(j)
	}
	for _, d := range []*DCSC{
		NewDCSC(4, 4),
		NewDCSC(4, 0),
		dcscWithCols(1, []int32{0}),
		dcscWithCols(1000, []int32{0}),
		dcscWithCols(1000, []int32{999}),
		dcscWithCols(1<<30, []int32{1<<30 - 1}),
		dcscWithCols(300, every),
		dcscWithCols(1<<20, clustered),
		dcscWithCols(1<<30, []int32{0, 5, 1 << 20, 1<<29 - 1, 1 << 29, 1<<30 - 2, 1<<30 - 1}),
		dcscWithCols(1<<31-1, []int32{7, 1 << 30, 1<<31 - 2}),
	} {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		checkEveryLookup(t, d)
	}
	for trial := 0; trial < 60; trial++ {
		cols := int32(1 + rng.Intn(5000))
		nnz := rng.Intn(3 * int(cols))
		checkEveryLookup(t, randomNNZCSC(t, 16, cols, nnz, int64(trial)).ToDCSC())
	}
}

// TestDCSCAuxOnEveryConstructor looks every column up on blocks as each
// constructor leaves them — none of them builds the index, so each of these
// is a first lookup on a block that never had one.
func TestDCSCAuxOnEveryConstructor(t *testing.T) {
	m := randomNNZCSC(t, 32, 4096, 500, 77)
	d := m.ToDCSC()
	checkEveryLookup(t, d)
	checkEveryLookup(t, d.Clone())

	sel := MatColSelect(d, []int32{3, 17, 40, 41, 42, 100, 2000, 4095}).(*DCSC)
	checkEveryLookup(t, sel)
	var cyclic []int32 // every third run of 50 columns, from the second
	for c := int32(50); c < d.Cols; c += 150 {
		for x := c; x < min(c+50, d.Cols); x++ {
			cyclic = append(cyclic, x)
		}
	}
	checkEveryLookup(t, MatColSelect(d, cyclic).(*DCSC))

	for _, piece := range MatColRanges(d, []int32{0, 1000, 1000, 3000, 4096}) {
		checkEveryLookup(t, piece.(*DCSC))
	}

	for _, blk := range SplitGrid(m, PartBounds(m.Rows, 3), PartBounds(m.Cols, 5), FormatDCSC) {
		checkEveryLookup(t, blk.(*DCSC))
	}

	// One arena decodes block after block into the same DCSC header: every
	// decode must start without the previous block's index.
	var ar Arena
	for _, src := range []*DCSC{d, sel, dcscWithCols(1<<20, []int32{9, 1 << 19})} {
		got, err := DeserializeMatrixInto(src.Serialize(), &ar)
		if err != nil {
			t.Fatal(err)
		}
		checkEveryLookup(t, got.(*DCSC))
	}
	fresh, err := DeserializeMatrix(d.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	checkEveryLookup(t, fresh.(*DCSC))
}

// TestDCSCAuxConcurrentFirstLookups has many goroutines make the first
// lookups on one shared block at once, as the ranks a broadcast block is
// shared with do. Meaningful under -race (make race).
func TestDCSCAuxConcurrentFirstLookups(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		d := randomNNZCSC(t, 16, 1<<14, 900, int64(trial)).ToDCSC()
		want := make([]int, d.Cols)
		for j := range want {
			want[j] = scanFind(d, int32(j))
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for j := int32(g); j < d.Cols; j += 3 {
					if got := d.find(j); got != want[j] {
						t.Errorf("goroutine %d: find(%d) = %d, want %d", g, j, got, want[j])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestMemBytesModelMatchesBlockMemBytes keeps the statistics-only footprint
// model (used by the planner) in lockstep with the Matrix-based accounting.
func TestMemBytesModelMatchesBlockMemBytes(t *testing.T) {
	m := randomNNZCSC(t, 64, 512, 400, 5)
	d := m.ToDCSC()
	const r = 24
	if got, want := MemBytesModel(FormatCSC, m.NNZ(), m.NonEmptyCols(), r), BlockMemBytes(m, r); got != want {
		t.Fatalf("CSC model %d, BlockMemBytes %d", got, want)
	}
	if got, want := MemBytesModel(FormatDCSC, d.NNZ(), d.NonEmptyCols(), r), BlockMemBytes(d, r); got != want {
		t.Fatalf("DCSC model %d, BlockMemBytes %d", got, want)
	}
}

// TestWireBytesForMatchesCommBytes keeps the statistics-only wire-size model
// in lockstep with the serializer for both encodings.
func TestWireBytesForMatchesCommBytes(t *testing.T) {
	hyper := randomNNZCSC(t, 64, 4096, 500, 6) // hypersparse: wire compresses
	dense := randomNNZCSC(t, 64, 32, 500, 7)   // dense-ish: wire stays flat
	for _, m := range []*CSC{hyper, dense} {
		if got, want := WireBytesFor(m.Cols, m.NonEmptyCols(), m.NNZ()), m.CommBytes(); got != want {
			t.Fatalf("%v: WireBytesFor %d, CommBytes %d", m, got, want)
		}
		if got, want := WireBytesFor(m.Cols, m.NonEmptyCols(), m.NNZ()), int64(len(m.Serialize())); got != want {
			t.Fatalf("%v: WireBytesFor %d, len(Serialize) %d", m, got, want)
		}
	}
}
