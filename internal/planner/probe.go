package planner

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/distmat"
	"repro/internal/spmat"
)

// Probe holds the cheap statistics the predictors work from: exact input
// shapes and flop count, plus a sampled per-column symbolic probe of the
// output. Probing costs O(nnz(B) + sampled flops) — independent of any
// candidate configuration — and is fully deterministic (stride sampling).
type Probe struct {
	// RowsA, Inner, ColsB are the global shapes: A is RowsA×Inner, B is
	// Inner×ColsB.
	RowsA, Inner, ColsB int32
	// NnzA and NnzB are the exact input nonzero counts.
	NnzA, NnzB int64
	// Flops is the exact multiplication count of A·B.
	Flops int64
	// SampledCols is how many B columns the symbolic probe visited.
	SampledCols int
	// NnzCEst estimates nnz(A·B) from the sample (exact when every column
	// was sampled).
	NnzCEst int64
	// NzcCEst estimates the non-empty output columns from the sample.
	NzcCEst int64

	// scale extrapolates sampled sums to all columns.
	scale float64
	// sampleFlops[k] and sampleNNZ[k] are the flop count and exact output
	// nonzeros of the k-th sampled column.
	sampleFlops []int64
	sampleNNZ   []int64
	// sampleColID[k] is the global B column of sample k and sampleRows[k]
	// its sorted distinct output rows — the sampled output structure the
	// per-grid imbalance estimate partitions.
	sampleColID []int32
	sampleRows  [][]int32
	// flopsByInner[r] is the exact flop count attributed to inner index r
	// (B's row-r entry count × nnz of A column r): the distribution that
	// decides how much work each (stage, layer) slice of the inner
	// dimension carries. Power-law inputs concentrate it on a few hub
	// indices, which is what makes layers unequal.
	flopsByInner []int64
}

// DefaultSampleCols is the probe's default symbolic sample size.
const DefaultSampleCols = 256

// ProbePair probes the pair (A, B), sampling at most sample columns of B for
// the symbolic estimate (0 means DefaultSampleCols). Sampling is a fixed
// stride over the column range, so the probe — and every decision derived
// from it — is deterministic.
func ProbePair(a, b *spmat.CSC, sample int) (*Probe, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("planner: inner dimension mismatch: A is %v, B is %v", a, b)
	}
	if sample <= 0 {
		sample = DefaultSampleCols
	}
	pr := &Probe{
		RowsA: a.Rows, Inner: a.Cols, ColsB: b.Cols,
		NnzA: a.NNZ(), NnzB: b.NNZ(),
	}
	cols := int(b.Cols)
	if sample > cols {
		sample = cols
	}
	pr.SampledCols = sample
	if sample > 0 {
		pr.scale = float64(cols) / float64(sample)
	} else {
		pr.scale = 1
	}

	// Exact flop count and its distribution over the inner dimension: one
	// pass over B's entries.
	pr.flopsByInner = make([]int64, a.Cols)
	b.EnumCols(func(_ int32, rows []int32, _ []float64) {
		for _, r := range rows {
			f := a.ColNNZ(r)
			pr.Flops += f
			pr.flopsByInner[r] += f
		}
	})

	// Sampled symbolic probe: exact per-column flops and distinct output
	// rows for a deterministic stride of columns. A column whose flops pay
	// for a presence bitmap over A's rows (useBitmap) marks its rows there
	// and reads them back in ascending order by walking the words, clearing
	// them as it goes. Any other column's rows pass through an open-addressed
	// set sized for that column — 2·min(flops, rows) slots rounded up to a
	// power of two, a slot holding row+1 and 0 when empty — so only the
	// distinct ones are sorted. Either way that is O(flops) a column, and no
	// buffer is sized by A's row count alone, which an uploaded header can
	// claim without a byte to back it.
	var scratch, slots []int32
	var marks []uint64
	var sumNNZ int64
	var occupied int64
	for k := 0; k < sample; k++ {
		j := int32(int64(k) * int64(cols) / int64(sample))
		bRows, _ := b.Column(j)
		var f int64
		for _, r := range bRows {
			f += a.ColNNZ(r)
		}
		var distinct []int32
		if useBitmap(a.Rows, f) {
			words := (int(a.Rows) + 63) / 64
			if words > len(marks) {
				marks = make([]uint64, words)
			}
			n := 0
			for _, r := range bRows {
				aRows, _ := a.Column(r)
				for _, i := range aRows {
					w, bit := &marks[i>>6], uint64(1)<<(i&63)
					n += int((^*w & bit) >> (i & 63)) // 1 when the row is new
					*w |= bit
				}
			}
			distinct = make([]int32, 0, n)
			for x, w := range marks[:words] {
				if w == 0 {
					continue
				}
				for ; w != 0; w &= w - 1 {
					distinct = append(distinct, int32(x<<6|bits.TrailingZeros64(w)))
				}
				marks[x] = 0
			}
		} else {
			size := 8
			for int64(size) < 2*min(f, int64(a.Rows)) {
				size *= 2
			}
			if size > len(slots) {
				slots = make([]int32, size)
			}
			set, mask := slots[:size], uint32(size-1)
			clear(set)
			scratch = scratch[:0]
			for _, r := range bRows {
				aRows, _ := a.Column(r)
				for _, i := range aRows {
					h := uint32(i) * 2654435769 & mask
					for set[h] != 0 && set[h] != i+1 {
						h = (h + 1) & mask
					}
					if set[h] == 0 {
						set[h] = i + 1
						scratch = append(scratch, i)
					}
				}
			}
			slices.Sort(scratch)
			distinct = make([]int32, len(scratch))
			copy(distinct, scratch)
		}
		c := int64(len(distinct))
		pr.sampleFlops = append(pr.sampleFlops, f)
		pr.sampleNNZ = append(pr.sampleNNZ, c)
		pr.sampleColID = append(pr.sampleColID, j)
		pr.sampleRows = append(pr.sampleRows, distinct)
		sumNNZ += c
		if c > 0 {
			occupied++
		}
	}
	pr.NnzCEst = int64(pr.scale * float64(sumNNZ))
	pr.NzcCEst = int64(pr.scale * float64(occupied))
	return pr, nil
}

// useBitmap reports whether a sampled column with f flops into an A of rows
// rows dedupes through a presence bitmap: only when the bitmap costs at most
// one word per flop, so its size is bounded by the column's work and never by
// a row count a header merely claims.
func useBitmap(rows int32, f int64) bool { return (int64(rows)+63)/64 <= f }

// UnmergedW estimates the unmerged intermediate nonzeros when the inner
// dimension is split into len(weights) slices carrying the given flop
// shares (weights sum to 1; SliceWeights computes real ones), returning the
// total and the per-slice breakdown. This is the quantity behind Merge-Layer
// input (one slice per SUMMA stage per layer), the merged per-layer outputs
// and fiber exchange volume (one slice per layer), and nnz(C) itself (one
// slice).
//
// Per sampled column with f flops hitting c distinct output rows, a slice
// carrying share w of the flops holds c·(1−(1−1/c)^(f·w)) distinct rows in
// expectation (each flop a uniform draw over the c rows); the column's
// unmerged total is the sum over slices — exactly c for one slice and
// approaching f as slices shrink, the right endpoints by construction. The
// per-column total is clamped to the analytic envelope [c, f], rescaling
// slices proportionally. The rescale reuses each slice's t = 1−(1−1/c)^(f·w)
// from the first pass as (adj·c)·t: written adj·(c·t) it rounds differently
// in the last bit, and every plan built on these volumes would move with it.
func (pr *Probe) UnmergedW(weights []float64) (float64, []float64) {
	perSlice := make([]float64, len(weights))
	t := make([]float64, len(weights))
	var total float64
	for k, f := range pr.sampleFlops {
		c := float64(pr.sampleNNZ[k])
		if c <= 0 {
			continue
		}
		fm := float64(f)
		var colTotal float64
		for s, w := range weights {
			t[s] = 1 - math.Pow(1-1/c, fm*w)
			u := c * t[s]
			perSlice[s] += u // rescaled below if the column clamps
			colTotal += u
		}
		clamped := colTotal
		if clamped < c {
			clamped = c
		}
		if clamped > fm {
			clamped = fm
		}
		if colTotal > 0 && clamped != colTotal {
			adj := clamped/colTotal - 1
			for s, ts := range t {
				perSlice[s] += adj * c * ts
			}
		}
		total += clamped
	}
	for s := range perSlice {
		perSlice[s] *= pr.scale
	}
	return pr.scale * total, perSlice
}

// SliceWeights returns the exact flop share of each of the q·l inner
// slices — the (stage, layer) partition of A's columns the 3D algorithm
// works in, flattened s·l+k. Uniform when the multiplication has no flops.
func (pr *Probe) SliceWeights(q, l int) []float64 {
	w := make([]float64, q*l)
	sb := distmat.NewADist(pr.RowsA, pr.Inner, q, l).ColSlices()
	var total float64
	for x := range w {
		var sum int64
		for _, f := range pr.flopsByInner[sb[x]:sb[x+1]] {
			sum += f
		}
		w[x] = float64(sum)
		total += float64(sum)
	}
	if total == 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return w
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// foldLayers sums the q·l slice weights sw over the stages.
func foldLayers(sw []float64, q, l int) []float64 {
	w := make([]float64, l)
	for s := 0; s < q; s++ {
		for k := 0; k < l; k++ {
			w[k] += sw[s*l+k]
		}
	}
	return w
}

// outputImbalance estimates the max/mean ratio of the per-rank output
// volume on a q×q layer grid by partitioning the sampled output structure
// into the grid's (row block, column block) cells — the factor separating
// the fiber exchange's critical-path rank from the balanced mean on
// power-law outputs (hub rows concentrate merged entries on a few process
// rows). Returns 1 for q = 1 or an empty sample.
func (pr *Probe) outputImbalance(q int) float64 {
	if q <= 1 || len(pr.sampleRows) == 0 {
		return 1
	}
	rowB := spmat.PartBounds(pr.RowsA, q)
	colB := spmat.PartBounds(pr.ColsB, q)
	w := make([]float64, q*q)
	n := make([]int, q)
	for k, rows := range pr.sampleRows {
		j := partIndex(colB, pr.sampleColID[k])
		rowBlockSizes(n, rows, rowB)
		for i, c := range n {
			w[i*q+j] += float64(c) // integer-valued sums: exact, as one ++ a row was
		}
	}
	var max, sum float64
	for _, v := range w {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 1
	}
	return max * float64(len(w)) / sum
}

// fiberOccupied estimates the occupied (row block, column) cells of the
// output on a q-way row partition — Σ over destination ranks of the occupied
// columns of their merged fiber piece, which is the column-scan work of an
// all-DCSC Merge-Fiber. Each sampled column contributes its count of distinct
// row blocks (its rows are sorted, so each block's count is one binary
// search); the sampled sum extrapolates by the probe's column scale.
func (pr *Probe) fiberOccupied(q int) float64 {
	if q < 1 || len(pr.sampleRows) == 0 {
		return 0
	}
	rowB := spmat.PartBounds(pr.RowsA, q)
	n := make([]int, q)
	var cells int64
	for _, rows := range pr.sampleRows {
		rowBlockSizes(n, rows, rowB)
		for _, c := range n {
			cells += int64(min(c, 1))
		}
	}
	return pr.scale * float64(cells)
}

// rowBlockSizes sets n[i] to the number of the ascending rows that fall in
// part i of bounds: len(n) binary searches instead of a lookup per row.
func rowBlockSizes(n []int, rows, bounds []int32) {
	lo := 0
	for i := range n {
		c, _ := slices.BinarySearch(rows[lo:], bounds[i+1])
		n[i] = c
		lo += c
	}
}

// gridStat holds the exact per-block statistics of one candidate q×q×l grid:
// nonzeros and occupied columns of every Ã and B̃ block, counted by the
// distributions themselves (distmat's Count: the deal's count pass over the
// bounds Split deals by, one O(nnz + cols) pass per operand on every core,
// its scratch sized by a column range's entries). These feed the byte-exact
// broadcast predictions and the per-format footprint maxima.
type gridStat struct {
	q, l int
	// A blocks indexed (i, s, k) → (i·q+s)·l + k: row block i, column block
	// s, layer slice k. aCols is per (s, k) → s·l + k (independent of i).
	aNNZ, aNE []int64
	aCols     []int32
	// B blocks indexed (i, j, k) → (i·q+j)·l + k: row block i sliced into
	// layer k, column block j. bCols is per j.
	bNNZ, bNE []int64
	bCols     []int32

	// Memoized slice-model outputs (format-independent, so the per-format
	// prediction loop computes them once per grid): the unmerged totals and
	// per-slice breakdowns for the q·l stage slices and the l layer slices,
	// and the two passes over the sampled output structure that depend on q
	// alone, Probe.outputImbalance and Probe.fiberOccupied.
	sliceModelDone        bool
	uQL, uL               float64
	perSliceQL, perLayerL []float64
	maxLayerQL, maxLayerL float64
	outImbalance          float64
	fiberCells            float64

	// Sparse-comm statistics (Plan.subsetStat, computed lazily — only
	// candidates with SparseComm != off pay for them): for A block (i, s, k)
	// and receiver column j, aSubNE/aSubNNZ[blockIdx(i,s,k)·q + j] are the
	// occupied-column count and entry count of the column subset receiver
	// (i, j, k) declares at stage s — the rows of B̃(s,j,k) — and
	// bRowSup[blockIdx(s,j,k)] is that support's size (the fallback
	// Allgather's payload length).
	subStatDone     bool
	aSubNE, aSubNNZ []int64
	bRowSup         []int64
}

// sliceModel fills the memoized probe-derived volumes.
func (gs *gridStat) sliceModel(pr *Probe) {
	if gs.sliceModelDone {
		return
	}
	sw := pr.SliceWeights(gs.q, gs.l)
	gs.uQL, gs.perSliceQL = pr.UnmergedW(sw)
	if gs.q == 1 {
		// The layer slices are the stage slices, and so are their volumes
		// (both slices are only read from here on).
		gs.uL, gs.perLayerL = gs.uQL, gs.perSliceQL
	} else {
		gs.uL, gs.perLayerL = pr.UnmergedW(foldLayers(sw, gs.q, gs.l))
	}
	for k := 0; k < gs.l; k++ {
		var s float64
		for st := 0; st < gs.q; st++ {
			s += gs.perSliceQL[st*gs.l+k]
		}
		if s > gs.maxLayerQL {
			gs.maxLayerQL = s
		}
		if gs.perLayerL[k] > gs.maxLayerL {
			gs.maxLayerL = gs.perLayerL[k]
		}
	}
	gs.outImbalance, gs.fiberCells = pr.outputImbalance(gs.q), pr.fiberOccupied(gs.q)
	gs.sliceModelDone = true
}

// computeSubsetStat fills the sparse-comm statistics: exactly the quantities
// the runtime's subset path derives at run time. Receiver (i, j, k)'s stage-s
// column subset is the occupied-row set of B̃(s,j,k) — and because A's
// column slices align with B's row slices (ADist.ColSlices and
// BDist.RowSlices are the same bounds), a global inner index r in that
// support touches global A column r. One pass over A buckets per-column
// entry counts by row block; one pass per receiver column j marks the
// touched inner indices and folds them, slice by slice of BDist.RowSlices,
// into per-(A block, receiver) occupancy.
func computeSubsetStat(gs *gridStat, a, b *spmat.CSC) {
	if gs.subStatDone {
		return
	}
	q, l := gs.q, gs.l
	gs.aSubNE = make([]int64, q*q*l*q)
	gs.aSubNNZ = make([]int64, q*q*l*q)
	gs.bRowSup = make([]int64, q*q*l)

	// cnt[i·cols + c] = entries of A column c within row block i.
	da, db := distmat.NewADist(a.Rows, a.Cols, q, l), distmat.NewBDist(b.Rows, b.Cols, q, l)
	cols := int(a.Cols)
	cnt := make([]int64, q*cols)
	a.EnumCols(func(j int32, rows []int32, _ []float64) {
		for _, r := range rows {
			cnt[partIndex(da.RowB, r)*cols+int(j)]++
		}
	})

	// Each receiver's touched inner indices, walked slice by slice: inner
	// index r of slice s·l+k belongs to B̃(s, ·, k) and to A column r.
	inner := db.RowSlices()
	touched := make([]bool, int(b.Rows))
	for j := 0; j < q; j++ {
		clear(touched)
		for c := db.ColB[j]; c < db.ColB[j+1]; c++ {
			rows, _ := b.Column(c)
			for _, r := range rows {
				touched[r] = true
			}
		}
		for sk := 0; sk < q*l; sk++ {
			s, k := sk/l, sk%l
			for r := inner[sk]; r < inner[sk+1]; r++ {
				if !touched[r] {
					continue
				}
				gs.bRowSup[gs.blockIdx(s, j, k)]++
				for i := 0; i < q; i++ {
					if n := cnt[i*cols+int(r)]; n > 0 {
						idx := gs.blockIdx(i, s, k)*q + j
						gs.aSubNE[idx]++
						gs.aSubNNZ[idx] += n
					}
				}
			}
		}
	}
	gs.subStatDone = true
}

// blockIdx flattens (x, y, k) on a q×q×l grid.
func (gs *gridStat) blockIdx(x, y, k int) int { return (x*gs.q+y)*gs.l + k }

// partIndex returns the partition index of v under ascending bounds
// (PartBounds output): the smallest i with bounds[i+1] > v, which is the
// count of bounds[1:] at or below v.
func partIndex(bounds []int32, v int32) int {
	lo, hi := 0, len(bounds)-1
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if bounds[h+1] > v {
			hi = h
		} else {
			lo = h + 1
		}
	}
	return lo
}

// computeGridStat measures the candidate grid's exact block occupancy with
// the distributions' own Count, over the bounds their Split deals by.
// ADist.Index(i, s, k) is gridStat's (i·q+s)·l + k, so A's counts are used as
// they come; B's are moved from BDist.Index(i, j, k) to blockIdx(i, j, k).
func computeGridStat(a, b *spmat.CSC, q, l int) *gridStat {
	da, db := distmat.NewADist(a.Rows, a.Cols, q, l), distmat.NewBDist(b.Rows, b.Cols, q, l)
	gs := &gridStat{
		q: q, l: l,
		aCols: widths(da.ColSlices()),
		bNNZ:  make([]int64, q*q*l), bNE: make([]int64, q*q*l),
		bCols: widths(db.ColB),
	}
	gs.aNNZ, gs.aNE = da.Count(a)
	nnz, ne := db.Count(b)
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			for k := 0; k < l; k++ {
				x, y := gs.blockIdx(i, j, k), db.Index(i, j, k)
				gs.bNNZ[x], gs.bNE[x] = nnz[y], ne[y]
			}
		}
	}
	return gs
}

// widths returns the sizes of the parts of ascending bounds.
func widths(bounds []int32) []int32 {
	w := make([]int32, len(bounds)-1)
	for x := range w {
		w[x] = bounds[x+1] - bounds[x]
	}
	return w
}
