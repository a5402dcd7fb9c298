package spmat

import (
	"math"
	"slices"
)

// PairSorter sorts one column's parallel (rows, vals) slices by ascending
// row index. It is the only pair sort in the repo: SortColumns, Compact and
// FromTriples reach it through the matrix types, and the local kernels'
// sorted drain calls it directly with a worker-owned sorter.
//
// There is no sort.Interface and no per-comparison indirection. A short
// column is insertion-sorted as pairs. A dense one — its rows span at most
// spanPerEntry times its length, the Merge-Fiber regime — is counting-sorted
// on the row index in O(length + span). Any other is sorted as packed
// row<<32|position keys with slices.Sort, and the values are gathered
// through the positions afterwards. Equal rows keep their input order in all
// three. The scratch buffers belong to the sorter and only ever grow, so a
// sorter that has seen its longest column allocates nothing. The zero value
// is ready to use; a sorter is single-goroutine state.
type PairSorter struct {
	keys  []uint64
	vals  []float64
	count []int32
}

const (
	// insertionSortMax is the longest column sorted by insertion: below it
	// the scratch passes cost more than the quadratic moves.
	insertionSortMax = 16
	// spanPerEntry bounds the counting sort's row span per entry, so its
	// O(span) passes stay proportional to the column.
	spanPerEntry = 4
)

// Sort orders rows ascending and moves every value with its row.
func (s *PairSorter) Sort(rows []int32, vals []float64) {
	n := len(rows)
	if slices.IsSorted(rows) {
		return
	}
	if n <= insertionSortMax {
		for i := 1; i < n; i++ {
			r, v := rows[i], vals[i]
			j := i
			for ; j > 0 && rows[j-1] > r; j-- {
				rows[j], vals[j] = rows[j-1], vals[j-1]
			}
			rows[j], vals[j] = r, v
		}
		return
	}
	if n > math.MaxInt32 {
		panic("spmat: column too long to sort")
	}
	if cap(s.vals) < n {
		s.vals = make([]float64, max(n, 2*cap(s.vals)))
	}
	tmp := s.vals[:n]
	lo, hi := slices.Min(rows), slices.Max(rows)
	if span := int(hi) - int(lo) + 1; span <= spanPerEntry*n {
		// count[r-lo] is where row r's next value goes: the number of
		// entries with smaller rows, advanced past each one placed. Once
		// every value is placed it is the end of row r's run.
		if cap(s.count) < span+1 {
			s.count = make([]int32, max(span+1, 2*cap(s.count)))
		}
		count := s.count[:span+1]
		clear(count)
		for _, r := range rows {
			count[r-lo+1]++
		}
		for i := 1; i < span; i++ {
			count[i] += count[i-1]
		}
		for i, r := range rows {
			tmp[count[r-lo]] = vals[i]
			count[r-lo]++
		}
		p := int32(0)
		for i, end := range count[:span] {
			for ; p < end; p++ {
				rows[p] = lo + int32(i)
			}
		}
		copy(vals, tmp)
		return
	}
	if cap(s.keys) < n {
		s.keys = make([]uint64, max(n, 2*cap(s.keys)))
	}
	keys := s.keys[:n]
	for i, r := range rows {
		keys[i] = uint64(uint32(r))<<32 | uint64(i)
	}
	slices.Sort(keys)
	for i, k := range keys {
		rows[i] = int32(k >> 32)
		tmp[i] = vals[uint32(k)]
	}
	copy(vals, tmp)
}
