package spmat

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
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
//
// One encoder writes every encoding, wireEnc.encode over a wireSource (CSC,
// DCSC, ColSubsetView, Segmented), and one decoder, decode, reads it back.
const serialHeader = 17

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
// len(Serialize(m)) without allocating. The non-empty count is memoized per
// block, so the batched schedule's repeated broadcasts of one block don't
// rescan its columns on every send.
func (m *CSC) CommBytes() int64 { return WireBytesFor(m.Cols, m.NonEmptyCols(), m.NNZ()) }

// CommBytes returns the wire size; identical to the CSC form of the same
// logical matrix.
func (d *DCSC) CommBytes() int64 { return WireBytesFor(d.Cols, d.NonEmptyCols(), d.NNZ()) }

// Serialize encodes the matrix into the wire format above.
func (m *CSC) Serialize() []byte { return encodeInto(matrixHead(m), m, nil) }

// Serialize encodes the matrix into the shared wire format, byte-identical
// to serializing its CSC form.
func (d *DCSC) Serialize() []byte { return encodeInto(matrixHead(d), d, nil) }

// WriteTo streams the matrix's wire encoding — byte for byte Serialize's —
// to w through one buffer of at most wireChunk bytes, and returns the bytes
// w accepted: the encoding is never held whole.
func (m *CSC) WriteTo(w io.Writer) (int64, error) { return encodeTo(matrixHead(m), m, w) }

// wireHead is what the header and the encoding's length follow from.
type wireHead struct {
	rows, cols int32
	sorted     bool
	ne, nnz    int64
}

func matrixHead(m Matrix) wireHead {
	rows, cols := m.Dims()
	return wireHead{rows, cols, m.Sorted(), m.NonEmptyCols(), m.NNZ()}
}

func (h wireHead) size() int64 { return WireBytesFor(h.cols, h.ne, h.nnz) }

// wireSource is a matrix as the encoder reads it after its head: wireCols
// hands e.cols (or e.col) its columns in ascending order — every occupied
// one, empty ones optional — with their entry counts, wireRuns hands e.run
// its entries in column order. Both formats keep their entries in column
// order in one pair of arrays, so those are a single run.
type wireSource interface {
	wireCols(e *wireEnc)
	wireRuns(e *wireEnc)
}

func (m *CSC) wireCols(e *wireEnc) { e.cols(nil, m.ColPtr) }

func (m *CSC) wireRuns(e *wireEnc) { e.run(Segment{Rows: m.RowIdx, Vals: m.Val}) }

func (d *DCSC) wireCols(e *wireEnc) { e.cols(d.JC, d.CP) }

func (d *DCSC) wireRuns(e *wireEnc) { e.run(Segment{Rows: d.IR, Vals: d.Num}) }

// encodeInto encodes into dst when dst has the capacity, into a fresh buffer
// otherwise, and returns the encoding.
func encodeInto(h wireHead, src wireSource, dst []byte) []byte {
	n := h.size()
	if int64(cap(dst)) < n {
		dst = make([]byte, n)
	}
	e := wireEnc{wireOut: wireOut{buf: dst[:n]}}
	e.encode(h, src)
	return e.buf
}

// encodeTo writes the encoding to w through one buffer of at most wireChunk
// bytes (streamBufs) and returns the bytes w accepted.
func encodeTo(h wireHead, src wireSource, w io.Writer) (int64, error) {
	buf := streamBufs.Get().(*[]byte)
	defer streamBufs.Put(buf)
	e := wireEnc{wireOut: wireOut{w: w, buf: (*buf)[:min(h.size(), wireChunk)]}}
	e.encode(h, src)
	e.flush()
	return e.n, e.err
}

// wireEnc is the one wire encoder, the mirror of decode: encode writes a
// header, column section, rows and values, in the layout above, through its
// wireOut.
type wireEnc struct {
	wireOut
	hyper   bool
	next    int32 // the column after the last one cols saw
	end     int64 // the entries of the columns before next
	valPass bool  // run writes values, not rows
}

func (e *wireEnc) encode(h wireHead, src wireSource) {
	e.hyper = Hypersparse(h.ne, h.cols)
	hd := e.buf[:serialHeader+4] // every buffer holds the header and 4 bytes more
	binary.LittleEndian.PutUint32(hd[0:], uint32(h.rows))
	binary.LittleEndian.PutUint32(hd[4:], uint32(h.cols))
	binary.LittleEndian.PutUint64(hd[8:], uint64(h.nnz))
	hd[16], e.off = 0, serialHeader
	if h.sorted {
		hd[16] |= 1
	}
	if e.hyper {
		hd[16] |= 2
		binary.LittleEndian.PutUint32(hd[serialHeader:], uint32(h.ne))
		e.off += 4
	}
	src.wireCols(e)
	if !e.hyper {
		e.col(h.cols, 0) // the pointers of the trailing empty columns and the end
	}
	src.wireRuns(e)
	e.valPass = true
	src.wireRuns(e)
}

// cols writes the column section's part for the columns jc, in ascending
// order, column jc[i] holding cp[i+1]-cp[i] entries; a nil jc stands for the
// len(cp)-1 columns from the next one on. In the hypersparse encoding that
// is an (index, count) pair per occupied column, in the dense one the
// pointers of the columns up to the last of jc.
func (e *wireEnc) cols(jc []int32, cp []int64) {
	next, end := e.next, e.end
	for i := range len(cp) - 1 {
		j, n := next, cp[i+1]-cp[i]
		if jc != nil {
			j = jc[i]
		}
		switch {
		case e.hyper && n > 0:
			e.u64(uint64(uint32(j)) | uint64(n)<<32) // the pair, little-endian
		case !e.hyper:
			for ; next <= j; next++ {
				e.u64(uint64(end))
			}
		}
		next, end = j+1, end+n
	}
	e.next, e.end = next, end
}

// col writes the column section's part for column j, holding n entries.
func (e *wireEnc) col(j int32, n int64) { e.cols([]int32{j}, []int64{0, n}) }

func (e *wireEnc) run(sg Segment) {
	if e.valPass {
		e.vals(sg.Vals)
	} else {
		e.rows(sg.Rows, sg.Offset)
	}
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
// most wireChunk bytes (streamBufs) instead of holding the encoding whole.
// It reads no byte past the encoding; an n that is not the encoding's length
// is an error before any column or entry is read, and so is a stream that
// ends early.
func DeserializeFrom(r io.Reader, n int64, f Format) (Matrix, error) {
	buf := streamBufs.Get().(*[]byte)
	defer streamBufs.Put(buf)
	return decode(&wireIn{r: r, chunk: (*buf)[:min(max(n, 0), wireChunk)]}, n, f, nil)
}

// wireChunk is the buffer a streamed encoding is read or written through.
const wireChunk = 64 << 10

// streamBufs holds the wireChunk-byte buffers streamed encodings go through
// (encodeTo, DeserializeFrom) between calls, so a warm call allocates none.
// Neither side keeps a view of the buffer past its call: the encoder's
// writer must not retain what it is handed, and the decoder copies what it
// reads.
var streamBufs = sync.Pool{New: func() any {
	buf := make([]byte, wireChunk)
	return &buf
}}

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

// wireOut is the encoder's sink: a caller's buffer of exact size (w nil), or
// a chunk flushed to w whenever the next item does not fit. The first error
// from w sticks; later writes are dropped.
type wireOut struct {
	w   io.Writer
	buf []byte // the buffer; buf[:off] is pending
	off int
	n   int64 // bytes w accepted
	err error
}

func (o *wireOut) flush() {
	if o.err == nil && o.off > 0 {
		var k int
		k, o.err = o.w.Write(o.buf[:o.off])
		o.n += int64(k)
	}
	o.off = 0
}

// room flushes unless size more bytes fit, and returns how many items of
// that size fit.
func (o *wireOut) room(size int) int {
	if o.off+size > len(o.buf) {
		o.flush()
	}
	return (len(o.buf) - o.off) / size
}

// u64 tests for room itself so that it inlines.
func (o *wireOut) u64(v uint64) {
	if o.off+8 > len(o.buf) {
		o.flush()
	}
	binary.LittleEndian.PutUint64(o.buf[o.off:], v)
	o.off += 8
}

func (o *wireOut) rows(rows []int32, offset int32) {
	for len(rows) > 0 {
		k := min(o.room(4), len(rows))
		b := o.buf[o.off : o.off+4*k]
		for x, r := range rows[:k] {
			binary.LittleEndian.PutUint32(b[4*x:], uint32(r+offset))
		}
		o.off, rows = o.off+4*k, rows[k:]
	}
}

func (o *wireOut) vals(vals []float64) {
	for len(vals) > 0 {
		k := min(o.room(8), len(vals))
		b := o.buf[o.off : o.off+8*k]
		for x, v := range vals[:k] {
			binary.LittleEndian.PutUint64(b[8*x:], math.Float64bits(v))
		}
		o.off, vals = o.off+8*k, vals[k:]
	}
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
