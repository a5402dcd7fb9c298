package spmat

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// idle is the process's one free list of arrays: what ReleaseGrid took back
// from the blocks of a LendGrid, their AUX arrays (DCSC.index) included, and
// what localmm's lent kernel outputs gave back (Give) — entry chunks and
// column metadata. It holds strong references on purpose: one-shot calls
// deal and the kernels lend on every call, and arrays kept only in a
// sync.Pool would be dropped by every collection between them.
var idle struct {
	sync.Mutex
	i32   classes[int32]
	i64   classes[int64]
	f64   classes[float64]
	bytes int64 // Σ capacity · element size over the three types
}

// classes is one element type's idle arrays: by[k] holds those with a
// capacity in [2^k, 2^(k+1)), in no order, so a draw or a return moves no
// other array; n counts them all.
type classes[T element] struct {
	by [24][][]T
	n  int
}

// The list holds at most maxIdleBytes, no array above MaxKeptEntries and at
// most maxIdleArrays of a type. What comes back is kept: a full list makes
// room by dropping arrays of the type's smallest class when it holds too
// many, of its largest when the list holds too many bytes, so a list one
// workload filled turns over to the next one's arrays. A draw takes the
// smallest idle array that holds what is asked, and only while its capacity
// is below twice that: a small block or output never pins a large array.
const (
	maxIdleBytes   = 64 << 20
	MaxKeptEntries = 1 << 22
	maxIdleArrays  = 1 << 10
)

// IdleBytes is what the free list holds right now, in bytes.
func IdleBytes() int64 {
	idle.Lock()
	defer idle.Unlock()
	return idle.bytes
}

// PoisonReleased is a hook for tests: while it is set, every array given
// back to the free list — by ReleaseGrid or Give — is overwritten up to its
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
				return a[:n]
			}
		}
		idle.Unlock()
	}
	return make([]T, n)
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

// ReleaseGrid gives the arrays of blocks, which LendGrid dealt, back to the
// free list (Give), a doubly-compressed block's AUX array with them. Nothing
// may read the blocks afterwards, nor a view of them: the next deal on any
// goroutine fills the same arrays. The blocks keep their slices, so while
// PoisonReleased is set a late reader meets poison. A grid is released once.
func ReleaseGrid(blocks []Matrix) {
	for _, m := range blocks {
		switch b := m.(type) {
		case *CSC:
			Give(b.RowIdx)
			Give(b.ColPtr)
			Give(b.Val)
		case *DCSC:
			var aux []int32
			if ix := b.aux.Load(); ix != nil {
				aux = ix.start
			}
			Give(b.JC, b.IR, aux)
			Give(b.CP)
			Give(b.Num)
		}
	}
}
