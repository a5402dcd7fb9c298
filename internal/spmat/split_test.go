package spmat

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// skewedCSC is a rows×cols matrix whose first hot columns hold about nine
// tenths of its nnz entries — the column ranges a grid cuts it into carry
// very uneven work — with every column's rows in random order when unsorted.
func skewedCSC(t testing.TB, rows, cols, hot int32, nnz int, unsorted bool, seed int64) *CSC {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := make([]Triple, 0, nnz)
	for i := 0; i < nnz; i++ {
		c := int32(rng.Intn(int(cols)))
		if i%10 != 0 {
			c = int32(rng.Intn(int(hot)))
		}
		ts = append(ts, Triple{Row: int32(rng.Intn(int(rows))), Col: c, Val: float64(rng.Intn(9) + 1)})
	}
	m, err := FromTriples(rows, cols, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unsorted {
		for j := int32(0); j < m.Cols; j++ {
			lo, hi := m.ColPtr[j], m.ColPtr[j+1]
			rng.Shuffle(int(hi-lo), func(x, y int) {
				m.RowIdx[lo+int64(x)], m.RowIdx[lo+int64(y)] = m.RowIdx[lo+int64(y)], m.RowIdx[lo+int64(x)]
				m.Val[lo+int64(x)], m.Val[lo+int64(y)] = m.Val[lo+int64(y)], m.Val[lo+int64(x)]
			})
		}
		m.SortedCols = false
	}
	return m
}

// splitAt runs SplitGrid with GOMAXPROCS set to procs.
func splitAt(procs int, m *CSC, rowB, colB []int32, f Format) []Matrix {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return SplitGrid(m, rowB, colB, f)
}

// countAt runs CountGrid with GOMAXPROCS set to procs.
func countAt(procs int, m *CSC, rowB, colB []int32) (nnz, ne []int64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return CountGrid(m, rowB, colB)
}

// TestSplitGridSameOnEveryCoreCount deals the same grids on one core and on
// four and holds every block's wire bytes equal between the two, and to the
// block a one-range call (what LocalMat makes) cuts out alone: the column
// ranges may be dealt by any number of goroutines in any interleaving, and
// every block must come out as from a serial deal. CountGrid, on one core and
// on four, must count every dealt block's entries and occupied columns. The
// grids cover ranges of very uneven nnz, empty row and column ranges, one
// range, windows that do not cover the matrix, a hypersparse (kmer-like)
// operand and unsorted columns.
func TestSplitGridSameOnEveryCoreCount(t *testing.T) {
	skewed := skewedCSC(t, 64, 4000, 40, 6000, false, 1)
	kmer := skewedCSC(t, 128, 1<<14, 1<<14, 2500, false, 2)
	unsorted := skewedCSC(t, 50, 900, 30, 3000, true, 3)
	cases := []struct {
		name       string
		m          *CSC
		rowB, colB []int32
	}{
		{"uneven", skewed, PartBounds(64, 4), PartBounds(4000, 16)},
		{"uneven-fine", skewed, PartBounds(64, 2), []int32{0, 1, 2, 3, 20, 39, 40, 41, 2000, 4000}},
		{"empty-ranges", skewed, []int32{0, 0, 10, 10, 64}, []int32{0, 0, 5, 5, 5, 3000, 4000, 4000}},
		{"one-range", skewed, []int32{0, 64}, []int32{0, 4000}},
		{"one-window", skewed, []int32{5, 40}, []int32{10, 900}},
		{"window", skewed, []int32{3, 20, 50}, []int32{7, 30, 1000, 3000}},
		{"kmer-A", kmer, PartBounds(128, 2), PartBounds(1<<14, 32)},
		{"kmer-B", kmer, PartBounds(128, 32), PartBounds(1<<14, 2)},
		{"unsorted", unsorted, PartBounds(50, 3), PartBounds(900, 7)},
		{"empty-matrix", New(12, 30), PartBounds(12, 3), PartBounds(30, 5)},
	}
	for _, c := range cases {
		for _, f := range []Format{FormatAuto, FormatCSC, FormatDCSC} {
			label := fmt.Sprintf("%s/%v", c.name, f)
			one := splitAt(1, c.m, c.rowB, c.colB, f)
			four := splitAt(4, c.m, c.rowB, c.colB, f)
			nc := len(c.colB) - 1
			if len(one) != (len(c.rowB)-1)*nc || len(four) != len(one) {
				t.Fatalf("%s: %d blocks on one core, %d on four", label, len(one), len(four))
			}
			for _, procs := range []int{1, 4} {
				nnz, ne := countAt(procs, c.m, c.rowB, c.colB)
				for x, blk := range one {
					if nnz[x] != blk.NNZ() || ne[x] != blk.NonEmptyCols() {
						t.Fatalf("%s block (%d,%d): counted %d entries in %d columns on %d cores, dealt %v", label, x/nc, x%nc, nnz[x], ne[x], procs, blk)
					}
				}
			}
			for x := range one {
				r, cc := x/nc, x%nc
				alone := SplitGrid(c.m, c.rowB[r:r+2], c.colB[cc:cc+2], f)[0]
				want := one[x].Serialize()
				if got := four[x].Serialize(); string(got) != string(want) {
					t.Fatalf("%s block (%d,%d): four cores dealt %v, one core %v", label, r, cc, four[x], one[x])
				}
				if got := alone.Serialize(); string(got) != string(want) {
					t.Fatalf("%s block (%d,%d): cut alone %v, dealt %v", label, r, cc, alone, one[x])
				}
				if four[x].Format() != one[x].Format() || four[x].NonEmptyCols() != one[x].NonEmptyCols() {
					t.Fatalf("%s block (%d,%d): four cores dealt %v, one core %v", label, r, cc, four[x], one[x])
				}
			}
		}
	}
}

// kmerCSC is a reads×kmers 0/1 matrix with perRead random k-mers a read, the
// shape of bench/'s kmer-hyper operand (genmat.Kmer without the overlap
// between consecutive reads).
func kmerCSC(tb testing.TB, reads, kmers int32, perRead int, seed int64) *CSC {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := make([]Triple, 0, int(reads)*perRead)
	for i := int32(0); i < reads; i++ {
		for range perRead {
			ts = append(ts, Triple{Row: i, Col: int32(rng.Intn(int(kmers))), Val: 1})
		}
	}
	m, err := FromTriples(reads, kmers, ts, func(a, b float64) float64 { return 1 })
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkSplitGridKmer deals kmer-hyper's operands over its 2×2×16 grid
// (p = 64, l = 16): A, 4096 × 262144, into 2 row ranges × 32
// column slices, and B = Aᵀ into 32 row slices × 2 column ranges — the two
// deals every kmer-hyper multiply starts with, under the auto format.
func BenchmarkSplitGridKmer(b *testing.B) {
	a := kmerCSC(b, 4096, 262144, 24, 7)
	at := Transpose(a)
	for _, g := range []struct {
		name       string
		m          *CSC
		rowB, colB []int32
	}{
		{"A", a, PartBounds(a.Rows, 2), PartBounds(a.Cols, 32)},
		{"B", at, PartBounds(at.Rows, 32), PartBounds(at.Cols, 2)},
	} {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				SplitGrid(g.m, g.rowB, g.colB, FormatAuto)
			}
		})
	}
}
