package spmat

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// idleDeals is the free list of dealt block arrays: what ReleaseGrid took
// back from the blocks of a LendGrid — row indices, values, column pointers
// and stored columns — and the AUX arrays built on them (DCSC.index). Each
// kind is kept in ascending order of capacity, so a draw is a binary search
// for the best fit. It holds strong references on purpose, as localmm's free
// list of kernel scratch does: one-shot multiplies deal their operands on
// every call, and arrays kept only in a sync.Pool would be dropped by every
// collection between them.
var idleDeals struct {
	sync.Mutex
	i32   [][]int32
	i64   [][]int64
	f64   [][]float64
	bytes int64 // Σ capacity · element size over the three lists
}

// The list keeps what fits maxIdleDealBytes of what comes back, the same
// bound localmm puts on returned loans, no array above maxKeptDealEntries
// and at most maxIdleDealArrays arrays of a kind (a draw and a return shift
// the sorted list), and drops the rest. A draw takes the smallest idle array
// that holds what is asked, and only while its capacity is below twice the
// length asked: a small block never pins a large array.
const (
	maxIdleDealBytes   = 64 << 20
	maxKeptDealEntries = 1 << 22
	maxIdleDealArrays  = 1 << 13
)

// IdleDealBytes is what the free list of dealt block arrays holds right now,
// in bytes.
func IdleDealBytes() int64 {
	idleDeals.Lock()
	defer idleDeals.Unlock()
	return idleDeals.bytes
}

// PoisonReleased is a hook for tests: while it is set, ReleaseGrid
// overwrites every array it takes back — rows, pointers, stored columns and
// AUX −1, values NaN — before the free list sees it, so a block still read
// after its deal was released fails the comparison it takes part in instead
// of passing by luck of timing. localmm's PoisonReturnedChunks is this flag.
var PoisonReleased atomic.Bool

// dealArray is the element type of a dealt block's arrays.
type dealArray interface{ int32 | int64 | float64 }

// dealtArray returns an array of length n for a dealt block. When the deal
// is lent it is the best-fitting idle array of list, contents undefined, or
// a new one when none fits; otherwise it is allocated at its exact size.
func dealtArray[T dealArray](lend bool, list *[][]T, n int) []T {
	if lend && n > 0 {
		idleDeals.Lock()
		l := *list
		i, _ := slices.BinarySearchFunc(l, n, func(a []T, n int) int { return cap(a) - n })
		if i < len(l) && cap(l[i]) < 2*n {
			a := l[i]
			*list = slices.Delete(l, i, i+1)
			idleDeals.bytes -= arrayBytes(a)
			idleDeals.Unlock()
			return a[:n]
		}
		idleDeals.Unlock()
	}
	return make([]T, n)
}

// keepDeal puts a back on list at its capacity's place when it is within
// the list's bounds; the caller holds the lock.
func keepDeal[T dealArray](list *[][]T, a []T) {
	a = a[:cap(a)]
	n := arrayBytes(a)
	if n == 0 || len(a) > maxKeptDealEntries || len(*list) >= maxIdleDealArrays || idleDeals.bytes+n > maxIdleDealBytes {
		return
	}
	i, _ := slices.BinarySearchFunc(*list, len(a), func(b []T, n int) int { return cap(b) - n })
	*list = slices.Insert(*list, i, a)
	idleDeals.bytes += n
}

func arrayBytes[T dealArray](a []T) int64 {
	var z T
	return int64(cap(a)) * int64(unsafe.Sizeof(z))
}

// ReleaseGrid gives the arrays of blocks, which LendGrid dealt, back to the
// free list the next LendGrid draws its blocks' arrays from, and with a
// doubly-compressed block's arrays its AUX array. Nothing may read the
// blocks afterwards, nor a view of them: the next deal on any goroutine
// fills the same arrays. The blocks are left as they are — only their
// arrays change hands — so while PoisonReleased is set a late reader meets
// poison. A grid is released once.
func ReleaseGrid(blocks []Matrix) {
	if PoisonReleased.Load() {
		for _, m := range blocks {
			switch b := m.(type) {
			case *CSC:
				fillDeal(b.ColPtr, -1)
				fillDeal(b.RowIdx, -1)
				fillDeal(b.Val, math.NaN())
			case *DCSC:
				fillDeal(b.JC, -1)
				fillDeal(b.CP, -1)
				fillDeal(b.IR, -1)
				fillDeal(b.Num, math.NaN())
				if ix := b.aux.Load(); ix != nil {
					fillDeal(ix.start, -1)
				}
			}
		}
	}
	idleDeals.Lock()
	defer idleDeals.Unlock()
	for _, m := range blocks {
		switch b := m.(type) {
		case *CSC:
			keepDeal(&idleDeals.i64, b.ColPtr)
			keepDeal(&idleDeals.i32, b.RowIdx)
			keepDeal(&idleDeals.f64, b.Val)
		case *DCSC:
			keepDeal(&idleDeals.i32, b.JC)
			keepDeal(&idleDeals.i64, b.CP)
			keepDeal(&idleDeals.i32, b.IR)
			keepDeal(&idleDeals.f64, b.Num)
			if ix := b.aux.Load(); ix != nil {
				keepDeal(&idleDeals.i32, ix.start)
			}
		}
	}
}

// fillDeal overwrites the whole of a, up to its capacity, with v.
func fillDeal[T dealArray](a []T, v T) {
	a = a[:cap(a)]
	for i := range a {
		a[i] = v
	}
}
