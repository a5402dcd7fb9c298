package spmat

import (
	"io"
	"slices"
)

// Segment is a run of entries held in another matrix's arrays — in a
// Segmented, part of one column — read in place: row indices, each shifted by
// Offset, and their values.
type Segment struct {
	Rows   []int32
	Vals   []float64
	Offset int32
}

// Segmented is a rows×cols matrix that exists only as column segments of
// other matrices — a distributed product before assembly, each global column
// spread over the row blocks of one process column. Column j is
// Segs[SegPtr[j]:SegPtr[j+1]] end to end, and the segments of a column cover
// disjoint row ranges in ascending order, so a column is sorted once each of
// its segments is.
//
// WriteTo streams the matrix's wire encoding straight from the segments:
// byte for byte what Serialize gives for the CSC matrix that concatenates
// them and sorts its columns (SortColumns), sorted flag set, without that
// matrix or its encoding ever being held.
type Segmented struct {
	Rows, Cols int32
	SegPtr     []int
	Segs       []Segment
	// Sorted promises that every segment's rows ascend. Without it, a
	// segment whose rows do not is sorted on a scratch copy as it is written.
	Sorted bool
}

// colNNZ returns the entry count of column j.
func (s *Segmented) colNNZ(j int32) int64 {
	var n int64
	for _, sg := range s.Segs[s.SegPtr[j]:s.SegPtr[j+1]] {
		n += int64(len(sg.Rows))
	}
	return n
}

// head returns the encoding's head: the counts, and always sorted.
func (s *Segmented) head() wireHead {
	var nnz, ne int64
	for j := range s.Cols {
		if n := s.colNNZ(j); n > 0 {
			nnz += n
			ne++
		}
	}
	return wireHead{s.Rows, s.Cols, true, ne, nnz}
}

// CommBytes returns the length of the wire encoding WriteTo writes.
func (s *Segmented) CommBytes() int64 { return s.head().size() }

// WriteTo writes the wire encoding to w through one buffer of at most
// wireChunk bytes and returns the bytes w accepted.
func (s *Segmented) WriteTo(w io.Writer) (int64, error) { return encodeTo(s.head(), s, w) }

func (s *Segmented) wireCols(e *wireEnc) {
	for j := range s.Cols {
		e.col(j, s.colNNZ(j))
	}
}

func (s *Segmented) wireRuns(e *wireEnc) {
	var sc segmentSorter
	for _, sg := range s.Segs {
		if !s.Sorted {
			sg = sc.sorted(sg)
		}
		e.run(sg)
	}
}

// segmentSorter hands back a segment sorted: itself when its rows ascend,
// otherwise a sorted copy in scratch it reuses. PairSorter keeps equal rows
// in input order, so the rows section and the values section, each sorting
// the same segment afresh, agree entry for entry.
type segmentSorter struct {
	ps   PairSorter
	rows []int32
	vals []float64
}

func (sc *segmentSorter) sorted(sg Segment) Segment {
	if slices.IsSorted(sg.Rows) {
		return sg
	}
	sc.rows = append(sc.rows[:0], sg.Rows...)
	sc.vals = append(sc.vals[:0], sg.Vals...)
	sc.ps.Sort(sc.rows, sc.vals)
	return Segment{Rows: sc.rows, Vals: sc.vals, Offset: sg.Offset}
}
