package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// refMat is the bench's own column-compressed matrix. The reference below
// reads and writes only this type, so it shares no code with the kernels it
// checks; adapter.go converts to and from the repo's matrices.
type refMat struct {
	rows, cols int32
	colPtr     []int64
	rowIdx     []int32
	val        []float64
}

func (m refMat) nnz() int64 { return m.colPtr[m.cols] }

// signature identifies a matrix independently of the order its entries are
// visited in: hash covers (row, col, value bits) and is exact, pattern covers
// (row, col) only, and sum is the plain sum of the values.
type signature struct {
	nnz     int64
	hash    uint64
	pattern uint64
	sum     float64
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// add folds one entry into the signature. Wrapping addition keeps the hashes
// independent of entry order.
func (s *signature) add(row, col int32, v float64) {
	p := mix64(uint64(uint32(row))<<32 | uint64(uint32(col)))
	s.nnz++
	s.pattern += p
	s.hash += mix64(p + math.Float64bits(v))
	s.sum += v
}

func (s *signature) merge(o signature) {
	s.nnz += o.nnz
	s.hash += o.hash
	s.pattern += o.pattern
	s.sum += o.sum
}

// addColumn folds one stored column whose row indices are offset by rowOff.
func (s *signature) addColumn(col int32, rows []int32, vals []float64, rowOff int32) {
	for q, r := range rows {
		s.add(r+rowOff, col, vals[q])
	}
}

func signatureOf(m refMat) signature {
	var s signature
	for j := int32(0); j < m.cols; j++ {
		lo, hi := m.colPtr[j], m.colPtr[j+1]
		s.addColumn(j, m.rowIdx[lo:hi], m.val[lo:hi], 0)
	}
	return s
}

// equalExact holds for integer-valued operands, whose products and sums are
// exact in float64 whatever order the engine adds them in.
func (s signature) equalExact(o signature) bool {
	return s.nnz == o.nnz && s.hash == o.hash
}

// equalApprox is the check for real-valued operands: same pattern, and value
// sums within 1e-9 relative.
func (s signature) equalApprox(o signature) bool {
	if s.nnz != o.nnz || s.pattern != o.pattern {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(s.sum), math.Abs(o.sum)))
	return math.Abs(s.sum-o.sum) <= 1e-9*scale
}

// refMultiply is a serial Gustavson SpGEMM with a dense accumulator: for each
// column j of B it scatters B(k,j)·A(:,k) into acc. With keep it returns the
// product with sorted columns; the signature is computed either way.
func refMultiply(a, b refMat, keep bool) (signature, refMat) {
	acc := make([]float64, a.rows)
	stamp := make([]int32, a.rows)
	touched := make([]int32, 0, 1024)
	var sig signature
	c := refMat{rows: a.rows, cols: b.cols}
	if keep {
		c.colPtr = make([]int64, b.cols+1)
	}
	for j := int32(0); j < b.cols; j++ {
		touched = touched[:0]
		for q := b.colPtr[j]; q < b.colPtr[j+1]; q++ {
			k, bv := b.rowIdx[q], b.val[q]
			for r := a.colPtr[k]; r < a.colPtr[k+1]; r++ {
				i := a.rowIdx[r]
				if stamp[i] != j+1 {
					stamp[i] = j + 1
					acc[i] = 0
					touched = append(touched, i)
				}
				acc[i] += a.val[r] * bv
			}
		}
		if keep {
			sort.Slice(touched, func(x, y int) bool { return touched[x] < touched[y] })
		}
		for _, i := range touched {
			sig.add(i, j, acc[i])
			if keep {
				c.rowIdx = append(c.rowIdx, i)
				c.val = append(c.val, acc[i])
			}
		}
		if keep {
			c.colPtr[j+1] = int64(len(c.rowIdx))
		}
	}
	return sig, c
}

// refFlops counts the multiplications of A·B.
func refFlops(a, b refMat) int64 {
	var f int64
	for _, k := range b.rowIdx {
		f += a.colPtr[k+1] - a.colPtr[k]
	}
	return f
}

// calibSink keeps the calibration loop's result live.
var calibSink atomic.Uint64

// calibNominalS is what one calibration slice takes on the host this was
// written on, in its faster state. Times are reported as if every host ran the
// slice in exactly this long: a wall time is multiplied by calibNominalS over
// the run's median slice, which gives host-normalised seconds.
const calibNominalS = 0.008

// calibrate times one calibration slice: a fixed integer loop over a 512 KiB
// table, about 8 ms. A slice runs after every set-up and between operations,
// at most ten a second per client. The shared 2-core host this was written on
// changes speed by a third for minutes at a time, and the slice changes with
// it, so dividing by it takes most of such a change out of a reported time.
func calibrate() float64 {
	const steps = 5_000_000
	buf := make([]uint64, 1<<16)
	x := uint64(1)
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		buf[(x>>40)&(1<<16-1)] += x
	}
	calibSink.Add(buf[0] + x)
	return time.Since(t0).Seconds()
}
