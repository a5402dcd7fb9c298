package spmat

import (
	"fmt"
	"sync/atomic"
)

// Format selects the in-memory storage of a sparse matrix block.
//
// The distributed algorithm never sees a whole matrix: it sees the local
// blocks a 3D grid deals out, and at the paper's scale (tens of thousands of
// processes, many layers) those blocks are *hypersparse* — far more columns
// than nonzeros, e.g. the Rice-kmers regime of ~2 nnz per column spread over
// a q·l-way column split. A dense per-column pointer array (CSC) then costs
// O(cols) per block in memory and in every scan, dwarfing the O(nnz) payload.
// DCSC (doubly-compressed sparse columns, Buluç & Gilbert) stores only the
// non-empty columns, making every per-block quantity O(nnz).
type Format int

const (
	// FormatAuto picks per block: DCSC when fewer than half the columns are
	// occupied (the same 2× threshold as the hypersparse wire encoding),
	// CSC otherwise. This is the zero value and the default everywhere.
	FormatAuto Format = iota
	// FormatCSC forces the dense-column-pointer representation for every
	// block (the behavior of releases before the format knob existed).
	FormatCSC
	// FormatDCSC forces the doubly-compressed representation for every block.
	FormatDCSC
)

// String names the format for reports and flags.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatCSC:
		return "csc"
	case FormatDCSC:
		return "dcsc"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat maps a CLI string to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "auto", "":
		return FormatAuto, nil
	case "csc":
		return FormatCSC, nil
	case "dcsc":
		return FormatDCSC, nil
	}
	return 0, fmt.Errorf("spmat: unknown format %q (csc|dcsc|auto)", s)
}

// Matrix is the pluggable storage interface the local kernels and the
// distributed core operate on. Two implementations exist: *CSC (dense column
// pointers, O(cols) metadata) and *DCSC (doubly compressed, O(non-empty
// columns) metadata). Everything a kernel, a split, a footprint model, or
// the wire layer needs is expressible without assuming dense column
// metadata:
//
//   - EnumCols iterates only the non-empty columns, in ascending order, so
//     symbolic and numeric passes do work proportional to nnz/flops;
//   - Column/ColNNZ look one column up (O(1) for CSC, O(1) expected for
//     DCSC through its AUX chunk index) — the A-side access of SpGEMM;
//   - MemBytes is the per-format modeled footprint driving the
//     memory-constrained batch decision;
//   - CommBytes/Serialize speak the shared wire format, which chooses its
//     own (hypersparse or dense) encoding independent of the in-memory form,
//     so communication volume never depends on the format knob.
type Matrix interface {
	// Dims returns the logical (rows, cols) shape.
	Dims() (rows, cols int32)
	// NNZ returns the number of stored entries.
	NNZ() int64
	// NonEmptyCols returns the number of columns with at least one entry.
	NonEmptyCols() int64
	// ColNNZ returns the entry count of column j (0 for absent columns).
	ColNNZ(j int32) int64
	// Column returns views of column j's row indices and values (empty for
	// absent columns). Callers must not mutate them unless they own the
	// matrix.
	Column(j int32) ([]int32, []float64)
	// EnumCols calls fn for every non-empty column in ascending column
	// order, passing views of its row indices and values.
	EnumCols(fn func(j int32, rows []int32, vals []float64))
	// Sorted reports whether every column stores its rows in ascending
	// order.
	Sorted() bool
	// SortColumns sorts every column's rows (and values) ascending in place.
	SortColumns()
	// Format identifies the concrete representation (FormatCSC or
	// FormatDCSC, never FormatAuto).
	Format() Format
	// MemBytes is the modeled memory footprint under the paper's accounting
	// (per-format; see BytesPerNonzero and DCSC.MemBytes).
	MemBytes() int64
	// CommBytes is the wire size; identical for both formats of the same
	// logical matrix.
	CommBytes() int64
	// Serialize encodes the shared wire format (see serialize.go).
	Serialize() []byte
	// ToCSC returns the matrix in CSC form (itself when already CSC).
	ToCSC() *CSC
	// ToDCSC returns the matrix in DCSC form (itself when already DCSC).
	ToDCSC() *DCSC
	// CloneMat returns a deep copy with the same concrete format.
	CloneMat() Matrix
	// String returns a compact shape summary.
	String() string
	wireSource
	// shellOf is the header's hold on its shell: nil unless the matrix is
	// lent (Lend, Release).
	shellOf() *atomic.Pointer[shell]
}

// Hypersparse reports whether a block with the given shape qualifies for
// doubly-compressed storage: fewer than half the columns occupied. The same
// threshold picks the wire encoding (WireBytesFor, wireEnc) and FormatAuto,
// so a block that compresses in memory also compresses on the wire. (At full
// occupancy the two wire encodings are within a few bytes of each other; the
// 2x threshold keeps the common dense case on the dense encoding.)
func Hypersparse(nonEmpty int64, cols int32) bool {
	return 2*nonEmpty < int64(cols)
}

// WithFormat converts m to the requested format, returning m itself when it
// already matches. FormatAuto applies the Hypersparse heuristic per block.
func WithFormat(m Matrix, f Format) Matrix {
	switch f {
	case FormatCSC:
		return m.ToCSC()
	case FormatDCSC:
		return m.ToDCSC()
	default:
		return AutoFormat(m)
	}
}

// AutoFormat applies the hypersparse heuristic: DCSC when fewer than half
// the columns are occupied, CSC otherwise. The 2× threshold keeps dense-ish
// blocks on the O(1)-column-lookup path and mirrors the wire encoding's
// break-even point.
func AutoFormat(m Matrix) Matrix {
	_, cols := m.Dims()
	if Hypersparse(m.NonEmptyCols(), cols) {
		return m.ToDCSC()
	}
	return m.ToCSC()
}
