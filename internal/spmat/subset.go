package spmat

import (
	"encoding/binary"
	"fmt"
	"math"
)

// RowSupport returns the sorted list of rows of m that hold at least one
// entry. In an A·B multiply the inner loop reads column c of A only when row
// c of B is occupied, so the row support of a B block is exactly the column
// subset of the matching A block the receiver's multiply can touch — the
// sparsity the column-subset communication path ships instead of whole
// blocks.
func RowSupport(m Matrix) []int32 {
	rows, _ := m.Dims()
	seen := make([]bool, rows)
	var n int
	m.EnumCols(func(_ int32, rs []int32, _ []float64) {
		for _, r := range rs {
			if !seen[r] {
				seen[r] = true
				n++
			}
		}
	})
	out := make([]int32, 0, n)
	for r, s := range seen {
		if s {
			out = append(out, int32(r))
		}
	}
	return out
}

// ColSubsetView is a lazy wire view of a column subset of a matrix: it
// serializes (and meters) as if the unlisted columns of M were empty, without
// copying anything until Serialize is called. The logical shape is preserved
// — the encoded matrix still has all of M's columns, so a decode drops into
// the same kernels as a full block. Cols must be strictly ascending and in
// range. The occupancy statistics are memoized on first use; a view is
// single-goroutine state (each receiver builds its own).
type ColSubsetView struct {
	M    Matrix
	Cols []int32

	statted bool
	ne, nnz int64
}

// stat computes (once) the subset's non-empty column count and entry count.
func (v *ColSubsetView) stat() (ne, nnz int64) {
	if !v.statted {
		prev := int32(-1)
		for _, j := range v.Cols {
			if j <= prev {
				panic(fmt.Sprintf("spmat: ColSubsetView columns not strictly ascending at %d", j))
			}
			prev = j
			if c := v.M.ColNNZ(j); c > 0 {
				v.ne++
				v.nnz += c
			}
		}
		v.statted = true
	}
	return v.ne, v.nnz
}

// CommBytes returns the wire size of the subset — the same formula a
// materialized matrix with this occupancy would report, so metering a subset
// send is byte-identical to shipping the serialized subset.
func (v *ColSubsetView) CommBytes() int64 {
	_, cols := v.M.Dims()
	ne, nnz := v.stat()
	return wireBytes(Hypersparse(ne, cols), cols, ne, nnz)
}

// Serialize encodes the subset in the shared wire format.
func (v *ColSubsetView) Serialize() []byte { return v.SerializeInto(nil) }

// SerializeInto encodes the subset into dst when dst has the capacity,
// allocating a fresh buffer only when it does not — the pooled-buffer entry
// point (see mpi's per-communicator pool). It returns the encoded slice,
// which always has length CommBytes.
func (v *ColSubsetView) SerializeInto(dst []byte) []byte {
	rows, cols := v.M.Dims()
	ne, nnz := v.stat()
	hyper := Hypersparse(ne, cols)
	n := wireBytes(hyper, cols, ne, nnz)
	if int64(cap(dst)) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	dst[16] = 0 // pooled buffers are not zeroed; putHeader ORs flag bits
	putHeader(dst, rows, cols, nnz, v.M.Sorted(), hyper)
	off := int64(serialHeader)
	if hyper {
		binary.LittleEndian.PutUint32(dst[off:], uint32(ne))
		off += 4
		for _, j := range v.Cols {
			cnt := v.M.ColNNZ(j)
			if cnt == 0 {
				continue
			}
			binary.LittleEndian.PutUint32(dst[off:], uint32(j))
			binary.LittleEndian.PutUint32(dst[off+4:], uint32(cnt))
			off += 8
		}
	} else {
		var acc int64
		p := 0
		for j := int32(0); j <= cols; j++ {
			binary.LittleEndian.PutUint64(dst[off:], uint64(acc))
			off += 8
			if p < len(v.Cols) && v.Cols[p] == j {
				acc += v.M.ColNNZ(j)
				p++
			}
		}
	}
	// Wire layout is all row indices, then all values: two passes.
	for _, j := range v.Cols {
		rs, _ := v.M.Column(j)
		for _, r := range rs {
			binary.LittleEndian.PutUint32(dst[off:], uint32(r))
			off += 4
		}
	}
	for _, j := range v.Cols {
		_, vs := v.M.Column(j)
		for _, x := range vs {
			binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(x))
			off += 8
		}
	}
	return dst
}

// SubsetWireBytes returns the wire size of the listed columns of m without
// building a view: the same formula ColSubsetView.CommBytes reports. It
// allocates nothing, so the SUMMA inner loop can size every stage's subset
// while staying on the zero-allocation steady-state path.
func SubsetWireBytes(m Matrix, cols []int32) int64 {
	_, full := m.Dims()
	var ne, nnz int64
	for _, j := range cols {
		if c := m.ColNNZ(j); c > 0 {
			ne++
			nnz += c
		}
	}
	return wireBytes(Hypersparse(ne, full), full, ne, nnz)
}

// MatColSubsetSerialize encodes the listed columns of m (strictly ascending)
// in the shared wire format — the one-shot form of ColSubsetView.
func MatColSubsetSerialize(m Matrix, cols []int32) []byte {
	return (&ColSubsetView{M: m, Cols: cols}).Serialize()
}
