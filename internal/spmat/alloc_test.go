//go:build !race

package spmat

import (
	"runtime"
	"testing"
)

// The race detector's allocator is not the one whose bytes this file counts.

// TestLentCutAllocatesNothing: a lent matrix's column-range views — their
// metadata, their headers and the slice that holds them — are carved from
// its shell, so a warm cycle of lending a gather, cutting it into views and
// releasing it allocates one object, the lent matrix's own header, as
// lending and releasing it alone does: the cut allocates nothing, for either
// format. The lent header stays the matrix's own, so a stale Release finds
// no shell (TestReleaseGivesBackOnce). An owned matrix's cut allocates its
// headers and metadata, which the count must see.
func TestLentCutAllocatesNothing(t *testing.T) {
	defer PoisonReleased.Store(PoisonReleased.Swap(false))
	m := randomNNZCSC(t, 64, 400, 3000, 31)
	bounds := []int32{0, 100, 100, 250, 400}
	whole := func(int) (int32, int32) { return 0, m.Cols }
	for _, src := range []Matrix{m, m.ToDCSC()} {
		for _, cut := range []bool{false, true} {
			cycle := func() {
				lent := GatherColRanges(src, 1, whole, true)
				if cut {
					MatColRanges(lent, bounds)
				}
				Release(lent)
			}
			cycle()
			if n := testing.AllocsPerRun(100, cycle); n != 1 {
				t.Errorf("%v cut=%v: a warm lend and release allocates %v objects, want 1 (the lent header)", src.Format(), cut, n)
			}
		}
		if n := testing.AllocsPerRun(100, func() { MatColRanges(src, bounds) }); n == 0 {
			t.Errorf("%v: an owned cut allocates nothing: the count shows nothing", src.Format())
		}
	}
}

// TestStreamedFingerprintReusesItsBuffer: FingerprintOf streams the
// encoding through one wireChunk buffer into the hash, and the buffer comes
// from spmat's stream pool, so a warm call over a matrix whose encoding is
// larger than the buffer allocates only the hash state and the fingerprint
// — under 4 KiB a call, where a fresh buffer alone is 64 KiB.
func TestStreamedFingerprintReusesItsBuffer(t *testing.T) {
	const perCall = 4 << 10
	m := randomNNZCSC(t, 300, 400, 12000, 32)
	if size := matrixHead(m).size(); size <= wireChunk {
		t.Fatalf("the encoding is %d bytes, within one %d-byte buffer: the test shows nothing", size, wireChunk)
	}
	const calls = 20
	for range 3 {
		FingerprintOf(m)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		FingerprintOf(m)
	}
	runtime.ReadMemStats(&after)
	if n := (after.TotalAlloc - before.TotalAlloc) / calls; n >= perCall {
		t.Errorf("a warm FingerprintOf allocates %d bytes a call, want under %d", n, perCall)
	}
}
