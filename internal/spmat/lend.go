package spmat

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// idle is the process's one free list of arrays: what Release took back
// from lent matrices — the blocks of a LendGrid with their AUX arrays
// (DCSC.index), lent gathers, localmm's lent kernel outputs — and what the
// kernels give back of their own (Give). It holds strong references on
// purpose: one-shot calls deal and the kernels lend on every call, and arrays
// kept only in a sync.Pool would be dropped by every collection between them.
// It keeps the shells of released matrices too, empty, for the next lent one.
var idle struct {
	sync.Mutex
	i32    classes[int32]
	i64    classes[int64]
	f64    classes[float64]
	bytes  int64 // Σ capacity · element size over the three types
	shells []*shell
}

// classes is one element type's idle arrays: by[k] holds those with a
// capacity in [2^k, 2^(k+1)), in no order, so a draw or a return moves no
// other array; n counts them all.
type classes[T element] struct {
	by [24][][]T
	n  int
}

// The list holds at most maxIdleBytes, no array above MaxKeptEntries and at
// most maxIdleArrays of a type, and at most maxIdleShells empty shells — a job
// on a p-rank grid with q stages and l layers has its deal, up to
// p·(q + 2l + 4) stage products, Merge-Layer outputs, batch outputs and
// pieces of B lent at once, and a kept run every batch output besides until
// its reader releases them. What comes back is kept: a full list makes
// room by dropping arrays of the type's smallest class when it holds too
// many, of its largest when the list holds too many bytes, so a list one
// workload filled turns over to the next one's arrays. A draw takes the
// smallest idle array that holds what is asked, and only while its capacity
// is below twice that: a small block or output never pins a large array.
const (
	maxIdleBytes   = 64 << 20
	MaxKeptEntries = 1 << 22
	maxIdleArrays  = 1 << 10
	maxIdleShells  = 1 << 13
)

// IdleBytes is what the free list holds right now, in bytes.
func IdleBytes() int64 {
	idle.Lock()
	defer idle.Unlock()
	return idle.bytes
}

// PoisonReleased is a hook for tests: while it is set, every array given
// back to the free list — by Release or Give — is overwritten up to its
// capacity first: integers −1, values NaN. A block read after its grid was
// released, or a lent output read after its loan ended, fails the
// comparison it takes part in instead of passing by luck of timing.
var PoisonReleased atomic.Bool

// element is the element type of an array the free list keeps.
type element interface{ int32 | int64 | float64 }

// listOf is the free list's arrays of T.
func listOf[T element]() *classes[T] {
	var z T
	switch any(z).(type) {
	case int32:
		return any(&idle.i32).(*classes[T])
	case int64:
		return any(&idle.i64).(*classes[T])
	default:
		return any(&idle.f64).(*classes[T])
	}
}

// class is the capacity class of an array of c > 0 entries.
func class(c int) int { return bits.Len(uint(c)) - 1 }

// drawn is the list's ledger: the capacity bytes Draw has handed out less
// those Give has taken back (out), and the most out has been since the last
// reset (peak). What is out is what lent matrices and busy kernel workers
// hold of the list — an idle worker's chunk is parked (Park) — so a call
// that gives back all it drew leaves out where it found it.
var drawn struct{ out, peak atomic.Int64 }

// Drawn returns the bytes drawn from the list and not yet given back, and
// their high-water mark since the last reset — resetting it to what is out
// now when resetPeak asks.
func Drawn(resetPeak bool) (out, peak int64) {
	out, peak = drawn.out.Load(), drawn.peak.Load()
	if resetPeak {
		drawn.peak.Store(out)
	}
	return out, peak
}

// Park tells the ledger that the caller keeps a drawn array idle for its own
// next use — a kernel worker's chunk between calls — so it counts as given
// back, as the list's idle arrays do, until Unpark counts it out again.
func Park[T element](a []T) { charge(-arrayBytes(a)) }

// Unpark counts a parked array out again: its keeper is using it.
func Unpark[T element](a []T) { charge(arrayBytes(a)) }

// charge adds n bytes to what is drawn (n < 0 takes them back).
func charge(n int64) {
	if n == 0 {
		return
	}
	out := drawn.out.Add(n)
	for peak := drawn.peak.Load(); out > peak && !drawn.peak.CompareAndSwap(peak, out); peak = drawn.peak.Load() {
	}
}

// Draw returns an array of length n, contents undefined, for the caller to
// give back (Give) once nothing reads it: the best-fitting idle array, which
// is in n's class or the next, or a new one when none fits.
func Draw[T element](n int) []T {
	if n > 0 && n <= MaxKeptEntries {
		idle.Lock()
		l := listOf[T]()
		for k := class(n); k <= class(n)+1; k++ {
			best := -1
			for i, a := range l.by[k] {
				if c := cap(a); c >= n && c < 2*n && (best < 0 || c < cap(l.by[k][best])) {
					best = i
				}
			}
			if best >= 0 {
				a := l.take(k, best)
				idle.Unlock()
				charge(arrayBytes(a))
				return a[:n]
			}
		}
		idle.Unlock()
	}
	a := make([]T, n)
	charge(arrayBytes(a))
	return a
}

// take removes and returns the i-th array of class k; the caller holds the
// lock.
func (l *classes[T]) take(k, i int) []T {
	b := l.by[k]
	a := b[i]
	b[i], b[len(b)-1] = b[len(b)-1], nil
	l.by[k] = b[:len(b)-1]
	l.n--
	idle.bytes -= arrayBytes(a)
	return a
}

// dealtArray returns an array of length n for a dealt block: drawn from the
// free list when the deal is lent, allocated at its exact size otherwise.
func dealtArray[T element](lend bool, n int) []T {
	if lend {
		return Draw[T](n)
	}
	return make([]T, n)
}

// Give hands arrays back to the free list, which keeps each whole — poisoned
// first, outside the lock, while PoisonReleased is set. Nothing may read
// them afterwards, nor any slice of them: the next draw on any goroutine
// fills the same memory.
func Give[T element](arrays ...[]T) {
	var n int64
	for _, a := range arrays {
		n += arrayBytes(a)
	}
	charge(-n)
	if PoisonReleased.Load() {
		for _, a := range arrays {
			poison(a[:cap(a)])
		}
	}
	idle.Lock()
	defer idle.Unlock()
	for _, a := range arrays {
		keep(a[:cap(a)])
	}
}

// keep puts a in its class after making room for it; the caller holds the
// lock.
func keep[T element](a []T) {
	l := listOf[T]()
	n := arrayBytes(a)
	if n == 0 || len(a) > MaxKeptEntries {
		return
	}
	for k := 0; l.n >= maxIdleArrays; k++ {
		for len(l.by[k]) > 0 && l.n >= maxIdleArrays {
			l.take(k, len(l.by[k])-1)
		}
	}
	for k := len(l.by) - 1; k >= 0 && idle.bytes+n > maxIdleBytes; k-- {
		for len(l.by[k]) > 0 && idle.bytes+n > maxIdleBytes {
			l.take(k, len(l.by[k])-1)
		}
	}
	if idle.bytes+n <= maxIdleBytes {
		k := class(len(a))
		l.by[k] = append(l.by[k], a)
		l.n++
		idle.bytes += n
	}
}

// poison overwrites a: values NaN, integers −1.
func poison[T element](a []T) {
	if f, ok := any(a).([]float64); ok {
		for i := range f {
			f[i] = math.NaN()
		}
		return
	}
	for i := range a {
		a[i] = -1
	}
}

func arrayBytes[T element](a []T) int64 {
	var z T
	return int64(cap(a)) * int64(unsafe.Sizeof(z))
}

// shell is what a lent matrix holds of the free list: the arrays its own
// slices are views of, whole — its entries (rows, vals), column pointers
// (ptr) and, doubly-compressed, stored columns (jc) and AUX array (aux) —
// and what the column-range views cut from it are carved from
// (MatColRanges): the buffers of their metadata (viewPtr, viewJC), their
// headers (cscViews, dcscViews) and the slices they are returned in
// (pieces). A matrix's header points at its shell (CSC.loan, DCSC.loan)
// until Release takes it: one header, one shell, so a shell is given back
// once. The header is the matrix's own, never the shell's, so a stale
// Release finds no shell and does nothing. An idle shell keeps its view
// headers and buffers for the next lent matrix, so a warm cut allocates
// nothing.
type shell struct {
	rows, jc, aux, viewJC []int32
	ptr, viewPtr          []int64
	vals                  []float64
	cscViews              []CSC
	dcscViews             []DCSC
	pieces                []Matrix
}

// Lend marks m, which nothing else refers to yet, as lent: made of arrays
// drawn from the free list (Draw) — rows and vals its entries, ptr its column
// pointers, jc a DCSC's stored columns (nil for CSC) — which m's own slices
// are views of from their first element on, and which Release gives back,
// whole. A DCSC's AUX array is drawn from the list too once a lookup builds
// it.
func Lend(m Matrix, rows []int32, vals []float64, ptr []int64, jc []int32) {
	idle.Lock()
	var s *shell
	if n := len(idle.shells); n > 0 {
		s = idle.shells[n-1]
		idle.shells[n-1], idle.shells = nil, idle.shells[:n-1]
	}
	idle.Unlock()
	if s == nil {
		s = new(shell)
	}
	s.rows, s.vals, s.ptr, s.jc = rows, vals, ptr, jc
	m.shellOf().Store(s)
}

// set makes m a rows × cols CSC over the given arrays, with no count of its
// non-empty columns yet: a view header the shell reuses holds a past view's.
func (m *CSC) set(rows, cols int32, ptr []int64, ir []int32, num []float64, sorted bool) {
	m.Rows, m.Cols, m.ColPtr, m.RowIdx, m.Val, m.SortedCols = rows, cols, ptr, ir, num, sorted
	atomic.StoreInt64(&m.neCache, 0)
}

// set makes d a rows × cols DCSC over the given arrays, with no AUX array
// yet: a view header the shell reuses holds a past view's.
func (d *DCSC) set(rows, cols int32, jc []int32, ptr []int64, ir []int32, num []float64, sorted bool) {
	d.Rows, d.Cols, d.JC, d.CP, d.IR, d.Num, d.SortedCols = rows, cols, jc, ptr, ir, num, sorted
	d.aux.Store(nil)
}

// Release gives the arrays of a lent matrix — a block of a LendGrid, a lent
// gather (GatherColRanges), a lent kernel output (Lend) — back to the free
// list (Give), with its AUX array and the metadata of the views cut from it,
// and keeps its shell, with the views' headers, for the next. Nothing may
// read m afterwards, nor a view of it: the next draw on any goroutine fills
// the same arrays, and the next cut of a lent matrix the same view headers.
// m keeps its slices, so while PoisonReleased is set a late reader meets
// poison; the views let go of theirs unless it is set. Releasing an owned
// matrix, a view (but the whole-matrix piece MatColRanges returns, which is
// m) or a released matrix does nothing.
func Release(m Matrix) {
	s := m.shellOf().Swap(nil)
	if s == nil {
		return
	}
	Give(s.rows, s.jc, s.aux, s.viewJC)
	Give(s.ptr, s.viewPtr)
	Give(s.vals)
	if !PoisonReleased.Load() {
		clear(s.cscViews)
		clear(s.dcscViews)
	}
	s.rows, s.jc, s.aux, s.viewJC, s.ptr, s.viewPtr, s.vals = nil, nil, nil, nil, nil, nil, nil
	s.cscViews, s.dcscViews, s.pieces = s.cscViews[:0], s.dcscViews[:0], s.pieces[:0]
	idle.Lock()
	defer idle.Unlock()
	if len(idle.shells) < maxIdleShells {
		idle.shells = append(idle.shells, s)
	}
}

// room returns a lent matrix's view metadata buffer with room for n more
// elements: drawn from the free list on the first cut that needs any and
// grown by append after that — the grown array taking the drawn one's place
// in the ledger, as what Release gives back.
func room[T element](buf []T, n int) []T {
	if cap(buf) == 0 && n > 0 {
		return Draw[T](n)[:0]
	}
	grown := slices.Grow(buf, n)
	charge(arrayBytes(grown) - arrayBytes(buf))
	return grown
}

// grow lengthens *buf by n and returns the n new elements, capped.
func grow[T any](buf *[]T, n int) []T {
	at := len(*buf)
	*buf = slices.Grow(*buf, n)[:at+n]
	return (*buf)[at : at+n : at+n]
}
