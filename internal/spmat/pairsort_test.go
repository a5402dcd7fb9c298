package spmat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refPairs is the reference the pair sort is held to: a sort.Interface over
// the two slices, built here so it shares nothing with PairSorter.
type refPairs struct {
	rows []int32
	vals []float64
}

func (p refPairs) Len() int           { return len(p.rows) }
func (p refPairs) Less(i, j int) bool { return p.rows[i] < p.rows[j] }
func (p refPairs) Swap(i, j int) {
	p.rows[i], p.rows[j] = p.rows[j], p.rows[i]
	p.vals[i], p.vals[j] = p.vals[j], p.vals[i]
}

// TestPairSorterMatchesSortStable: over lengths 0–4096, in sorted, reversed
// and random order, with rows drawn from ranges that reach every strategy
// (dense spans for the counting sort, up to math.MaxInt32 for the packed
// keys, few distinct rows for runs of duplicates), one reused sorter must
// order the rows exactly as sort.Stable does and every value must travel
// with its row — values are unique, so a value under the wrong row or
// duplicates out of input order both show.
func TestPairSorterMatchesSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s PairSorter
	lengths := []int{0, 1, 2, 3, 15, 16, 17, 18, 31, 64, 100, 270, 1000, 4096}
	for i := 0; i < 40; i++ {
		lengths = append(lengths, rng.Intn(4097))
	}
	for _, n := range lengths {
		for _, maxRow := range []int{1, 3, n/2 + 1, 2*n + 1, 5*n + 1, 1 << 20, math.MaxInt32} {
			for _, order := range []string{"sorted", "reversed", "random"} {
				rows := make([]int32, n)
				vals := make([]float64, n)
				for i := range rows {
					rows[i] = int32(rng.Intn(maxRow))
					if maxRow == math.MaxInt32 && i == 0 {
						rows[i] = math.MaxInt32
					}
				}
				switch order {
				case "sorted":
					sort.Slice(rows, func(a, b int) bool { return rows[a] < rows[b] })
				case "reversed":
					sort.Slice(rows, func(a, b int) bool { return rows[a] > rows[b] })
				}
				for i := range vals {
					vals[i] = float64(i)
				}
				want := refPairs{append([]int32(nil), rows...), append([]float64(nil), vals...)}
				sort.Stable(want)
				s.Sort(rows, vals)
				for i := range rows {
					if rows[i] != want.rows[i] || vals[i] != want.vals[i] {
						t.Fatalf("n=%d maxRow=%d %s: entry %d is (%d, %v), want (%d, %v)",
							n, maxRow, order, i, rows[i], vals[i], want.rows[i], want.vals[i])
					}
				}
			}
		}
	}
}

// TestPairSorterSteadyStateAllocatesNothing pins the scratch reuse: a sorter
// that has seen its longest column sorts without allocating.
func TestPairSorterSteadyStateAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var s PairSorter
	dense, wide := make([]int32, 300), make([]int32, 300)
	vals := make([]float64, 300)
	fill := func() {
		for i := range dense {
			dense[i], wide[i] = int32(rng.Intn(1024)), int32(rng.Intn(1<<30))
		}
	}
	fill()
	s.Sort(dense, vals)
	s.Sort(wide, vals)
	if allocs := testing.AllocsPerRun(20, func() {
		fill()
		s.Sort(dense, vals)
		s.Sort(wide, vals)
	}); allocs != 0 {
		t.Errorf("warm sorter allocated %v times per run", allocs)
	}
}
