package spmat

import "fmt"

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
// range.
type ColSubsetView struct {
	M    Matrix
	Cols []int32
}

// subsetHead counts the occupied columns and the entries of the listed
// columns of m, panicking unless they are strictly ascending.
func subsetHead(m Matrix, cols []int32) wireHead {
	rows, full := m.Dims()
	h := wireHead{rows: rows, cols: full, sorted: m.Sorted()}
	prev := int32(-1)
	for _, j := range cols {
		if j <= prev {
			panic(fmt.Sprintf("spmat: column subset not strictly ascending at %d", j))
		}
		prev = j
		if c := m.ColNNZ(j); c > 0 {
			h.ne++
			h.nnz += c
		}
	}
	return h
}

// CommBytes returns the wire size of the subset — the same formula a
// materialized matrix with this occupancy would report, so metering a subset
// send is byte-identical to shipping the serialized subset.
func (v *ColSubsetView) CommBytes() int64 { return SubsetWireBytes(v.M, v.Cols) }

// Serialize encodes the subset in the shared wire format.
func (v *ColSubsetView) Serialize() []byte { return v.SerializeInto(nil) }

// SerializeInto encodes the subset into dst when dst has the capacity,
// allocating a fresh buffer only when it does not — the pooled-buffer entry
// point (see mpi's per-communicator pool). It returns the encoded slice,
// which always has length CommBytes.
func (v *ColSubsetView) SerializeInto(dst []byte) []byte {
	return encodeInto(subsetHead(v.M, v.Cols), v, dst)
}

func (v *ColSubsetView) wireCols(e *wireEnc) {
	for _, j := range v.Cols {
		e.col(j, v.M.ColNNZ(j))
	}
}

func (v *ColSubsetView) wireRuns(e *wireEnc) {
	for _, j := range v.Cols {
		rows, vals := v.M.Column(j)
		e.run(Segment{Rows: rows, Vals: vals})
	}
}

// SubsetWireBytes returns the wire size of the listed columns of m without
// building a view: the same formula ColSubsetView.CommBytes reports. It
// allocates nothing, so the SUMMA inner loop can size every stage's subset
// while staying on the zero-allocation steady-state path.
func SubsetWireBytes(m Matrix, cols []int32) int64 { return subsetHead(m, cols).size() }

// MatColSubsetSerialize encodes the listed columns of m (strictly ascending)
// in the shared wire format — the one-shot form of ColSubsetView.
func MatColSubsetSerialize(m Matrix, cols []int32) []byte {
	return (&ColSubsetView{M: m, Cols: cols}).Serialize()
}
