package spmat

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
)

// Segment is a run of one column's entries held in another matrix's arrays,
// read in place: row indices, each shifted by Offset, and their values.
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

// counts returns the entry count and the occupied-column count.
func (s *Segmented) counts() (nnz, ne int64) {
	for j := int32(0); j < s.Cols; j++ {
		if n := s.colNNZ(j); n > 0 {
			nnz += n
			ne++
		}
	}
	return nnz, ne
}

// CommBytes returns the length of the wire encoding WriteTo writes.
func (s *Segmented) CommBytes() int64 {
	nnz, ne := s.counts()
	return wireBytes(Hypersparse(ne, s.Cols), s.Cols, ne, nnz)
}

// WriteTo writes the wire encoding to w through one buffer of at most
// wireChunk bytes, section by section in Serialize's layout, and returns the
// bytes w accepted.
func (s *Segmented) WriteTo(w io.Writer) (int64, error) {
	nnz, ne := s.counts()
	hyper := Hypersparse(ne, s.Cols)
	out := wireOut{w: w, buf: make([]byte, 0, min(wireBytes(hyper, s.Cols, ne, nnz), wireChunk))}
	out.buf = out.buf[:serialHeader]
	putHeader(out.buf, s.Rows, s.Cols, nnz, true, hyper)
	if hyper {
		out.u32(uint32(ne))
	} else {
		out.u64(0)
	}
	var end int64
	for j := int32(0); j < s.Cols; j++ {
		n := s.colNNZ(j)
		end += n
		switch {
		case !hyper:
			out.u64(uint64(end))
		case n > 0:
			out.u32(uint32(j))
			out.u32(uint32(n))
		}
	}
	var sc segmentSorter
	for _, sg := range s.Segs {
		if !s.Sorted {
			sg = sc.sorted(sg)
		}
		out.rows(sg.Rows, sg.Offset)
	}
	for _, sg := range s.Segs {
		if !s.Sorted {
			sg = sc.sorted(sg)
		}
		out.vals(sg.Vals)
	}
	out.flush()
	return out.n, out.err
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

// wireOut writes an encoding through a fixed buffer. The first error from w
// sticks; later writes are dropped.
type wireOut struct {
	w   io.Writer
	buf []byte // pending bytes; cap is the buffer's size
	n   int64  // bytes w accepted
	err error
}

func (o *wireOut) flush() {
	if o.err == nil && len(o.buf) > 0 {
		var k int
		k, o.err = o.w.Write(o.buf)
		o.n += int64(k)
	}
	o.buf = o.buf[:0]
}

// room flushes unless size more bytes fit, and returns how many items of
// that size fit.
func (o *wireOut) room(size int) int {
	if cap(o.buf)-len(o.buf) < size {
		o.flush()
	}
	return (cap(o.buf) - len(o.buf)) / size
}

func (o *wireOut) u32(v uint32) {
	o.room(4)
	o.buf = binary.LittleEndian.AppendUint32(o.buf, v)
}

func (o *wireOut) u64(v uint64) {
	o.room(8)
	o.buf = binary.LittleEndian.AppendUint64(o.buf, v)
}

func (o *wireOut) rows(rows []int32, offset int32) {
	for len(rows) > 0 {
		k := min(o.room(4), len(rows))
		b := o.buf[len(o.buf) : len(o.buf)+4*k]
		for x, r := range rows[:k] {
			binary.LittleEndian.PutUint32(b[4*x:], uint32(r+offset))
		}
		o.buf, rows = o.buf[:len(o.buf)+4*k], rows[k:]
	}
}

func (o *wireOut) vals(vals []float64) {
	for len(vals) > 0 {
		k := min(o.room(8), len(vals))
		b := o.buf[len(o.buf) : len(o.buf)+8*k]
		for x, v := range vals[:k] {
			binary.LittleEndian.PutUint64(b[8*x:], math.Float64bits(v))
		}
		o.buf, vals = o.buf[:len(o.buf)+8*k], vals[k:]
	}
}
