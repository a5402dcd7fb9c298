package planner

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/genmat"
	"repro/internal/spmat"
)

// sampleOracle is the symbolic sample as ProbePair first computed it: gather
// every A row a sampled B column reaches, sort all of them, drop the
// duplicates — through sort.Slice's reflective swapper, which is what made it
// slow. Kept here as the reference for the sample's exact contents.
func sampleOracle(a, b *spmat.CSC, sample int) (flops, nnz []int64, colID []int32, rows [][]int32) {
	cols := int(b.Cols)
	var scratch []int32
	for k := 0; k < sample; k++ {
		j := int32(int64(k) * int64(cols) / int64(sample))
		bRows, _ := b.Column(j)
		var f int64
		scratch = scratch[:0]
		for _, r := range bRows {
			aRows, _ := a.Column(r)
			f += int64(len(aRows))
			scratch = append(scratch, aRows...)
		}
		sort.Slice(scratch, func(x, y int) bool { return scratch[x] < scratch[y] })
		distinct := make([]int32, 0, len(scratch))
		for x := range scratch {
			if x == 0 || scratch[x] != scratch[x-1] {
				distinct = append(distinct, scratch[x])
			}
		}
		flops = append(flops, f)
		nnz = append(nnz, int64(len(distinct)))
		colID = append(colID, j)
		rows = append(rows, distinct)
	}
	return flops, nnz, colID, rows
}

// Every plan pick and plan-cache key derives from the probe's sample, so
// ProbePair must reproduce the first implementation's exactly: on the
// planner tests' two fixtures, a hypersparse pair, an A far taller than it has
// entries, an operand with unsorted columns, empty operands, and a pair whose
// sampled columns dedupe through both the bitmap and the hash set.
func TestProbeSampleMatchesSortOracle(t *testing.T) {
	friendster := genmat.SymmetricPermute(genmat.RMAT(genmat.RMATConfig{
		Scale: 8, EdgeFactor: 10, Symmetrize: true, Seed: 102,
	}), 202)
	kmers := genmat.Kmer(genmat.KmerConfig{
		Reads: 128, Kmers: 128 * 64, KmersPerRead: 24, Overlap: 0.08, Seed: 106,
	})
	hyper := genmat.Hypersparse(4096, 4096, 2, 7)
	unsorted := genmat.ER(96, 6, 3)
	for j := int32(0); j < unsorted.Cols; j++ {
		lo, hi := unsorted.ColPtr[j], unsorted.ColPtr[j+1]
		for x, y := lo, hi-1; x < y; x, y = x+1, y-1 {
			unsorted.RowIdx[x], unsorted.RowIdx[y] = unsorted.RowIdx[y], unsorted.RowIdx[x]
			unsorted.Val[x], unsorted.Val[y] = unsorted.Val[y], unsorted.Val[x]
		}
	}
	unsorted.SortedCols = false
	// A power-law square: hub columns reach far more rows than A has words
	// of bitmap (2048 rows, 32 words), leaf columns far fewer.
	mixed := genmat.RMAT(genmat.RMATConfig{Scale: 11, EdgeFactor: 4, Seed: 9})
	cases := []struct {
		name   string
		a, b   *spmat.CSC
		sample int
	}{
		{"friendster", friendster, friendster, 0},
		{"friendster-all-columns", friendster, friendster, int(friendster.Cols)},
		{"kmers-AAt", kmers, spmat.Transpose(kmers), 0},
		{"kmers-AtA", spmat.Transpose(kmers), kmers, 0},
		{"hypersparse", hyper, hyper, 0},
		{"tall-hypersparse", genmat.Hypersparse(1<<20, 96, 3, 11), unsorted, 0},
		{"unsorted-columns", unsorted, unsorted, 0},
		{"empty", spmat.New(64, 64), spmat.New(64, 64), 0},
		{"empty-times-full", spmat.New(96, 96), unsorted, 0},
		{"zero-by-zero", spmat.New(0, 0), spmat.New(0, 0), 0},
		{"no-columns", spmat.New(5, 7), spmat.New(7, 0), 0},
		{"bitmap-and-hash", mixed, mixed, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr, err := ProbePair(tc.a, tc.b, tc.sample)
			if err != nil {
				t.Fatal(err)
			}
			flops, nnz, colID, rows := sampleOracle(tc.a, tc.b, pr.SampledCols)
			if tc.a == mixed {
				// The columns of one probe must take both dedupe paths.
				var bitmap int
				for _, f := range flops {
					if useBitmap(tc.a.Rows, f) {
						bitmap++
					}
				}
				if bitmap == 0 || bitmap == len(flops) {
					t.Fatalf("%d of %d sampled columns take the bitmap path; the case needs both paths", bitmap, len(flops))
				}
			}
			if !reflect.DeepEqual(pr.sampleFlops, flops) {
				t.Errorf("sampleFlops differ from the oracle")
			}
			if !reflect.DeepEqual(pr.sampleNNZ, nnz) {
				t.Errorf("sampleNNZ differ from the oracle")
			}
			if !reflect.DeepEqual(pr.sampleColID, colID) {
				t.Errorf("sampleColID differ from the oracle")
			}
			if !reflect.DeepEqual(pr.sampleRows, rows) {
				t.Errorf("sampleRows differ from the oracle")
			}
			var sum, occupied int64
			for _, c := range nnz {
				sum += c
				if c > 0 {
					occupied++
				}
			}
			if want := int64(pr.scale * float64(sum)); pr.NnzCEst != want {
				t.Errorf("NnzCEst %d, oracle %d", pr.NnzCEst, want)
			}
			if want := int64(pr.scale * float64(occupied)); pr.NzcCEst != want {
				t.Errorf("NzcCEst %d, oracle %d", pr.NzcCEst, want)
			}
		})
	}
}

// partIndex must return what sort.Search over "bounds[i+1] > v" returns, for
// every split of n into parts — including n < parts, where some parts are
// empty — and for v past the last bound.
func TestPartIndexMatchesSearch(t *testing.T) {
	for n := int32(0); n <= 300; n++ {
		for parts := 1; parts <= 70; parts++ {
			bounds := spmat.PartBounds(n, parts)
			for v := int32(0); v < n+2; v++ {
				want := sort.Search(parts, func(i int) bool { return bounds[i+1] > v })
				if got := partIndex(bounds, v); got != want {
					t.Fatalf("n = %d, %d parts, v = %d: partIndex %d, sort.Search %d", n, parts, v, got, want)
				}
			}
		}
	}
}

// An A whose header claims 2³¹−1 rows behind a handful of entries must not
// cost the probe a buffer of its claimed height: every sampled column takes
// the per-column hash set, and the whole probe allocates well under 1 MB.
func TestProbeIgnoresClaimedRows(t *testing.T) {
	var ts []spmat.Triple
	for j := int32(0); j < 8; j++ {
		ts = append(ts, spmat.Triple{Row: math.MaxInt32 - 1 - 7*j, Col: j, Val: 1}, spmat.Triple{Row: 3 * j, Col: j, Val: 1})
	}
	a, err := spmat.FromTriples(math.MaxInt32, 8, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := genmat.ER(8, 3, 5)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pr, err := ProbePair(a, b, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("probing a %d-row A with %d entries allocated %d bytes", a.Rows, a.NNZ(), d)
	}
	for k, f := range pr.sampleFlops {
		if useBitmap(a.Rows, f) {
			t.Fatalf("sampled column %d (%d flops) would take a %d-row bitmap", k, f, a.Rows)
		}
	}
	_, _, _, rows := sampleOracle(a, b, pr.SampledCols)
	if !reflect.DeepEqual(pr.sampleRows, rows) {
		t.Fatalf("sampleRows differ from the oracle")
	}
}
