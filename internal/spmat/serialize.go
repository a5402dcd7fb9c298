package spmat

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The binary wire format used when a matrix crosses the simulated network:
//
//	[0:4)   rows   (int32 LE)
//	[4:8)   cols   (int32 LE)
//	[8:16)  nnz    (int64 LE)
//	[16]    flags  (bit 0: SortedCols; bit 1: hypersparse encoding)
//
// Dense-column encoding (flag bit 1 clear): (cols+1) int64 column pointers,
// then nnz int32 row indices and nnz float64 values.
//
// Hypersparse encoding (flag bit 1 set): an int32 count of non-empty
// columns, then for each non-empty column its int32 index and int32 entry
// count, then the row indices and values. This is the DCSC idea of CombBLAS:
// the matrices SUMMA moves at high layer counts have far more columns than
// nonzeros, and shipping a full column-pointer array would multiply the wire
// volume several-fold (the paper's Rice-kmers matrix has ~2 nonzeros per
// column precisely in this regime).
//
// The wire encoding is chosen by the Hypersparse threshold alone — never by
// the in-memory format — so both representations of the same logical matrix
// serialize to identical bytes and communication metering is independent of
// the format knob. DeserializeMatrix is the other half of that symmetry: a
// hypersparse-encoded buffer decodes straight into DCSC without ever
// materializing O(cols) column pointers.
const serialHeader = 17

// hypersparseWire reports whether the hypersparse encoding is used: fewer
// than half the columns occupied. (At full occupancy the two encodings are
// within a few bytes of each other; the 2x threshold keeps the common dense
// case on the simple path.) The non-empty count is memoized per block, so
// the batched schedule's repeated broadcasts of one block don't rescan its
// columns on every send.
func (m *CSC) hypersparseWire() (bool, int64) {
	ne := m.NonEmptyCols()
	return Hypersparse(ne, m.Cols), ne
}

// wireBytes is the shared size formula for both encodings. The dense term
// widens cols to int64 *before* adding one: cols+1 in int32 wraps negative at
// cols == math.MaxInt32 and used to corrupt the size of the largest legal
// blocks.
func wireBytes(hyper bool, cols int32, ne, nnz int64) int64 {
	if hyper {
		return serialHeader + 4 + 8*ne + 12*nnz
	}
	return serialHeader + 8*(int64(cols)+1) + 12*nnz
}

// WireBytesFor returns the wire size of a block with cols columns, ne of
// them occupied, and nnz entries — the same encoding choice and size formula
// the serializer uses, evaluable from block statistics alone. Cost
// predictors (the planner) use it so their modeled communication volume is
// byte-identical to what the metered run will charge for a block with the
// same occupancy.
func WireBytesFor(cols int32, ne, nnz int64) int64 {
	return wireBytes(Hypersparse(ne, cols), cols, ne, nnz)
}

// CommBytes returns the number of bytes the matrix occupies on the wire. The
// simulated MPI layer uses it to meter communication volume; it equals
// len(Serialize(m)) without allocating.
func (m *CSC) CommBytes() int64 {
	hyper, ne := m.hypersparseWire()
	return wireBytes(hyper, m.Cols, ne, m.NNZ())
}

// CommBytes returns the wire size; identical to the CSC form of the same
// logical matrix.
func (d *DCSC) CommBytes() int64 {
	ne := d.NonEmptyCols()
	return wireBytes(Hypersparse(ne, d.Cols), d.Cols, ne, d.NNZ())
}

// putHeader writes the 17-byte header shared by both encodings.
func putHeader(buf []byte, rows, cols int32, nnz int64, sorted, hyper bool) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(rows))
	binary.LittleEndian.PutUint32(buf[4:], uint32(cols))
	binary.LittleEndian.PutUint64(buf[8:], uint64(nnz))
	if sorted {
		buf[16] |= 1
	}
	if hyper {
		buf[16] |= 2
	}
}

// putEntries appends the row indices and values shared by both encodings.
func putEntries(buf []byte, off int, rowIdx []int32, vals []float64) {
	for _, r := range rowIdx {
		binary.LittleEndian.PutUint32(buf[off:], uint32(r))
		off += 4
	}
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
}

// Serialize encodes the matrix into the wire format above.
func (m *CSC) Serialize() []byte {
	nnz := m.NNZ()
	hyper, ne := m.hypersparseWire()
	buf := make([]byte, wireBytes(hyper, m.Cols, ne, nnz))
	putHeader(buf, m.Rows, m.Cols, nnz, m.SortedCols, hyper)
	off := serialHeader
	if hyper {
		binary.LittleEndian.PutUint32(buf[off:], uint32(ne))
		off += 4
		for j := int32(0); j < m.Cols; j++ {
			cnt := m.ColPtr[j+1] - m.ColPtr[j]
			if cnt == 0 {
				continue
			}
			binary.LittleEndian.PutUint32(buf[off:], uint32(j))
			binary.LittleEndian.PutUint32(buf[off+4:], uint32(cnt))
			off += 8
		}
	} else {
		for _, p := range m.ColPtr {
			binary.LittleEndian.PutUint64(buf[off:], uint64(p))
			off += 8
		}
	}
	putEntries(buf, off, m.RowIdx, m.Val)
	return buf
}

// Serialize encodes the matrix into the shared wire format, byte-identical
// to serializing its CSC form. The hypersparse encoding is a direct dump of
// the doubly-compressed arrays; the dense encoding (a non-hypersparse block
// held in DCSC, rare) inflates the column pointers on the way out.
func (d *DCSC) Serialize() []byte {
	nnz := d.NNZ()
	ne := d.NonEmptyCols()
	hyper := Hypersparse(ne, d.Cols)
	buf := make([]byte, wireBytes(hyper, d.Cols, ne, nnz))
	putHeader(buf, d.Rows, d.Cols, nnz, d.SortedCols, hyper)
	off := serialHeader
	if hyper {
		binary.LittleEndian.PutUint32(buf[off:], uint32(ne))
		off += 4
		for p := range d.JC {
			binary.LittleEndian.PutUint32(buf[off:], uint32(d.JC[p]))
			binary.LittleEndian.PutUint32(buf[off+4:], uint32(d.CP[p+1]-d.CP[p]))
			off += 8
		}
	} else {
		p := 0
		var acc int64
		for j := int32(0); j <= d.Cols; j++ {
			binary.LittleEndian.PutUint64(buf[off:], uint64(acc))
			off += 8
			if p < len(d.JC) && d.JC[p] == j {
				acc = d.CP[p+1]
				p++
			}
		}
	}
	putEntries(buf, off, d.IR, d.Num)
	return buf
}

// DeserializeMatrix decodes a matrix from the wire format, following the
// wire's own encoding flag: a hypersparse-encoded buffer becomes a DCSC —
// its column list and counts map one-to-one onto JC/CP, so the decode is
// O(nnz) with no dense column-pointer array ever allocated — and a
// dense-encoded buffer becomes a CSC.
func DeserializeMatrix(buf []byte) (Matrix, error) {
	return DeserializeFormat(buf, FormatAuto)
}

// Arena owns the backing arrays for in-place wire decoding. A decode through
// DeserializeMatrixInto reuses the arena's capacity from the previous decode,
// so a steady-state loop that keeps receiving blocks of similar size performs
// zero heap allocations once the arena has warmed up. The arena also embeds
// the matrix headers themselves: the Matrix returned by a decode aliases the
// arena and is valid only until the next decode into the same arena. An
// arena is single-goroutine state; concurrent receivers each own one.
type Arena struct {
	i32a, i32b []int32
	i64a       []int64
	f64a       []float64
	csc        CSC
	dcsc       DCSC
}

func arenaI32(s *[]int32, n int64) []int32 {
	if int64(cap(*s)) < n {
		*s = make([]int32, n)
	}
	*s = (*s)[:n]
	return *s
}

func arenaI64(s *[]int64, n int64) []int64 {
	if int64(cap(*s)) < n {
		*s = make([]int64, n)
	}
	*s = (*s)[:n]
	return *s
}

func arenaF64(s *[]float64, n int64) []float64 {
	if int64(cap(*s)) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// The decoder draws its headers and arrays through these; a nil arena is a
// heap decode. Arena arrays are not zeroed.

func (a *Arena) newCSC() *CSC {
	if a == nil {
		return new(CSC)
	}
	return &a.csc
}

func (a *Arena) newDCSC() *DCSC {
	if a == nil {
		return new(DCSC)
	}
	return &a.dcsc
}

func (a *Arena) cols(n int64) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return arenaI32(&a.i32a, n)
}

func (a *Arena) rows(n int64) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return arenaI32(&a.i32b, n)
}

func (a *Arena) ptrs(n int64) []int64 {
	if a == nil {
		return make([]int64, n)
	}
	return arenaI64(&a.i64a, n)
}

func (a *Arena) vals(n int64) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return arenaF64(&a.f64a, n)
}

// DeserializeMatrixInto decodes like DeserializeMatrix — following the wire's
// own encoding flag — but draws every array from the caller-owned arena
// instead of the heap. See Arena for the aliasing and reuse rules.
func DeserializeMatrixInto(buf []byte, a *Arena) (Matrix, error) {
	return decode(&wireIn{buf: buf}, int64(len(buf)), FormatAuto, a)
}

// DeserializeFormat decodes a matrix from the wire format into the requested
// in-memory format. FormatAuto follows the wire's encoding flag (the
// zero-conversion path); FormatCSC fills a hypersparse encoding's column
// pointers as it reads them; FormatDCSC compresses a dense encoding after
// decoding it.
func DeserializeFormat(buf []byte, f Format) (Matrix, error) {
	return decode(&wireIn{buf: buf}, int64(len(buf)), f, nil)
}

// DeserializeFrom decodes the n-byte wire encoding r yields into the
// requested format, exactly as DeserializeFormat decodes a slice — it is the
// same decoder, every check included — reading r through one buffer of at
// most wireChunk bytes instead of holding the encoding whole. It reads no
// byte past the encoding; an n that is not the encoding's length is an error
// before any column or entry is read, and so is a stream that ends early.
func DeserializeFrom(r io.Reader, n int64, f Format) (Matrix, error) {
	return decode(&wireIn{r: r, chunk: make([]byte, min(max(n, 0), wireChunk))}, n, f, nil)
}

// wireChunk is the buffer a streamed encoding is read or written through.
const wireChunk = 64 << 10

// wireIn hands the decoder an encoding's bytes in order: views of the
// caller's slice, or chunks read from a stream into one buffer.
type wireIn struct {
	buf   []byte    // a slice's unread bytes
	r     io.Reader // a stream, or nil for a slice
	chunk []byte    // the stream's buffer
}

// next returns the next n bytes — for a stream, at most len(chunk) of them,
// valid until the next call.
func (in *wireIn) next(n int) ([]byte, error) {
	if in.r == nil {
		b := in.buf[:n]
		in.buf = in.buf[n:]
		return b, nil
	}
	b := in.chunk[:n]
	if _, err := io.ReadFull(in.r, b); err != nil {
		return nil, fmt.Errorf("spmat: reading serialized matrix: %w", err)
	}
	return b, nil
}

// most returns how many of the want items of size bytes each next may serve
// at once: all of a slice, a buffer's worth of a stream.
func (in *wireIn) most(size int, want int64) int {
	if in.r == nil {
		return int(want)
	}
	return int(min(want, int64(len(in.chunk)/size)))
}

// decode is the one wire decoder. n is the encoding's length: every size the
// header claims is checked against it before anything is sized by it — nnz
// and ne come straight off the wire, and 12*nnz (or 8*ne) on a hostile header
// would overflow int64 and could otherwise alias a short encoding's length —
// and nothing is read past it.
func decode(in *wireIn, n int64, f Format, a *Arena) (Matrix, error) {
	if n < serialHeader {
		return nil, fmt.Errorf("spmat: serialized matrix truncated (%d bytes)", n)
	}
	h, err := in.next(serialHeader)
	if err != nil {
		return nil, err
	}
	rows := int32(binary.LittleEndian.Uint32(h[0:]))
	cols := int32(binary.LittleEndian.Uint32(h[4:]))
	nnz := int64(binary.LittleEndian.Uint64(h[8:]))
	sorted, hyper := h[16]&1 != 0, h[16]&2 != 0
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("spmat: serialized matrix has negative shape %dx%d nnz=%d", rows, cols, nnz)
	}
	if nnz > n/12 {
		return nil, fmt.Errorf("spmat: serialized nnz %d exceeds buffer capacity (%d bytes)", nnz, n)
	}
	var out Matrix
	if hyper {
		if n < serialHeader+4 {
			return nil, fmt.Errorf("spmat: hypersparse header truncated")
		}
		b, err := in.next(4)
		if err != nil {
			return nil, err
		}
		ne := int64(binary.LittleEndian.Uint32(b))
		if ne > int64(cols) || ne > n/8 {
			return nil, fmt.Errorf("spmat: hypersparse column count %d out of range (cols=%d, %d bytes)", ne, cols, n)
		}
		if want := wireBytes(true, cols, ne, nnz); n != want {
			return nil, fmt.Errorf("spmat: serialized matrix has %d bytes, want %d", n, want)
		}
		out, err = decodeHypersparse(in, rows, cols, nnz, ne, sorted, f == FormatCSC, a)
		if err != nil {
			return nil, err
		}
	} else {
		if want := wireBytes(false, cols, 0, nnz); n != want {
			return nil, fmt.Errorf("spmat: serialized matrix has %d bytes, want %d", n, want)
		}
		if out, err = decodeDense(in, rows, cols, nnz, sorted, a); err != nil {
			return nil, err
		}
	}
	if f == FormatAuto || out.Format() == f {
		return out, nil
	}
	return WithFormat(out, f), nil
}

// decodeHypersparse reads a hypersparse encoding's column list and entries
// into a DCSC, or with toCSC into a CSC whose pointers it fills as it goes.
func decodeHypersparse(in *wireIn, rows, cols int32, nnz, ne int64, sorted, toCSC bool, a *Arena) (Matrix, error) {
	var d *DCSC
	var m *CSC
	if toCSC {
		m = a.newCSC()
		*m = CSC{Rows: rows, Cols: cols, ColPtr: a.ptrs(int64(cols) + 1), RowIdx: a.rows(nnz), Val: a.vals(nnz), SortedCols: sorted, neCache: ne + 1}
		clear(m.ColPtr)
	} else {
		d = a.newDCSC()
		*d = DCSC{Rows: rows, Cols: cols, JC: a.cols(ne), CP: a.ptrs(ne + 1), IR: a.rows(nnz), Num: a.vals(nnz), SortedCols: sorted}
		d.CP[0] = 0
	}
	prev, sum := int32(-1), int64(0)
	for i := int64(0); i < ne; {
		k := in.most(8, ne-i)
		b, err := in.next(8 * k)
		if err != nil {
			return nil, err
		}
		for x := 0; x < k; x, i = x+1, i+1 {
			j := int32(binary.LittleEndian.Uint32(b[8*x:]))
			cnt := int64(binary.LittleEndian.Uint32(b[8*x+4:]))
			if j < 0 || j >= cols {
				return nil, fmt.Errorf("spmat: hypersparse column %d out of range", j)
			}
			if j <= prev {
				return nil, fmt.Errorf("spmat: hypersparse columns not ascending at %d", j)
			}
			if cnt <= 0 {
				return nil, fmt.Errorf("spmat: hypersparse column %d has count %d", j, cnt)
			}
			prev, sum = j, sum+cnt
			if d != nil {
				d.JC[i], d.CP[i+1] = j, sum
			} else {
				m.ColPtr[j+1] = sum
			}
		}
	}
	if sum != nnz {
		return nil, fmt.Errorf("spmat: hypersparse counts sum to %d, want %d", sum, nnz)
	}
	if d != nil {
		if err := in.entries(rows, d.IR, d.Num); err != nil {
			return nil, err
		}
		return d, nil
	}
	// An empty column ends where the stored column before it does.
	for j := int32(0); j < cols; j++ {
		m.ColPtr[j+1] = max(m.ColPtr[j+1], m.ColPtr[j])
	}
	if err := in.entries(rows, m.RowIdx, m.Val); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeDense reads a dense encoding's column pointers and entries.
func decodeDense(in *wireIn, rows, cols int32, nnz int64, sorted bool, a *Arena) (*CSC, error) {
	m := a.newCSC()
	*m = CSC{Rows: rows, Cols: cols, ColPtr: a.ptrs(int64(cols) + 1), RowIdx: a.rows(nnz), Val: a.vals(nnz), SortedCols: sorted}
	for ptr := m.ColPtr; len(ptr) > 0; {
		k := in.most(8, int64(len(ptr)))
		b, err := in.next(8 * k)
		if err != nil {
			return nil, err
		}
		for x := range ptr[:k] {
			ptr[x] = int64(binary.LittleEndian.Uint64(b[8*x:]))
		}
		ptr = ptr[k:]
	}
	if m.ColPtr[0] != 0 {
		return nil, fmt.Errorf("spmat: serialized column pointers start at %d, want 0", m.ColPtr[0])
	}
	for j := int32(0); j < cols; j++ {
		if m.ColPtr[j] > m.ColPtr[j+1] {
			return nil, fmt.Errorf("spmat: serialized column pointers not monotone at column %d", j)
		}
	}
	if m.ColPtr[cols] != nnz {
		return nil, fmt.Errorf("spmat: serialized column pointers sum to %d, want %d", m.ColPtr[cols], nnz)
	}
	if err := in.entries(rows, m.RowIdx, m.Val); err != nil {
		return nil, err
	}
	return m, nil
}

// entries reads the row indices and values shared by both encodings.
// Row-index validation is fused with the read: a hostile encoding carrying
// indices outside [0, rows) must error here, not panic later when a kernel
// scatters into an accumulator sized by rows.
func (in *wireIn) entries(rows int32, rowIdx []int32, vals []float64) error {
	for dst := rowIdx; len(dst) > 0; {
		k := in.most(4, int64(len(dst)))
		b, err := in.next(4 * k)
		if err != nil {
			return err
		}
		for x := range dst[:k] {
			r := int32(binary.LittleEndian.Uint32(b[4*x:]))
			if r < 0 || r >= rows {
				return fmt.Errorf("spmat: serialized row index %d out of range [0,%d)", r, rows)
			}
			dst[x] = r
		}
		dst = dst[k:]
	}
	for dst := vals; len(dst) > 0; {
		k := in.most(8, int64(len(dst)))
		b, err := in.next(8 * k)
		if err != nil {
			return err
		}
		for x := range dst[:k] {
			dst[x] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*x:]))
		}
		dst = dst[k:]
	}
	return nil
}
