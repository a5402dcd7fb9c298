package planner

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

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
	// sampleFlops[k], sampleNNZ[k] and sampleColID[k] are the flop count, the
	// exact output nonzeros and the global B column of the k-th sampled
	// column.
	sampleFlops []int64
	sampleNNZ   []int64
	sampleColID []int32
	// grids holds what the probe measured on each grid it was asked for.
	// Neither the flops per inner index nor the sampled rows are kept: B's
	// entries are folded into every grid's slice flops in one pass, and each
	// sampled column's rows into every grid's output cells while they sit in
	// scratch.
	grids []probedGrid
	// a and b are the probed pair: SliceWeights walks them for a grid the
	// probe did not measure, and a plan's sparse-comm statistics read them.
	a, b *spmat.CSC
}

// probedGrid is what the probe measures on one candidate q×q×l grid: the
// exact flops of each of its q·l inner slices, and the sampled output
// structure on its q×q layer grid (result).
type probedGrid struct {
	q, l int
	// sliceFlops[s·l+k] is the flop count of inner slice (s, k): Σ over B's
	// entries in its rows r of A column r's entry count.
	sliceFlops []int64
	// imbalance and cells are the sampled output's two estimates.
	imbalance, cells float64

	// The probe's working state: the inner slice bounds, the q row and
	// column blocks of the output, the sample's entries per (row block,
	// column block) cell — integer-valued sums, exact in any order — and its
	// occupied (row block, column) cells.
	slices, colB partition
	rowB         []int32
	cellNNZ      []float64
	occupied     int64
}

// DefaultSampleCols is the probe's default symbolic sample size.
const DefaultSampleCols = 256

// ProbePair probes the pair (A, B), sampling at most sample columns of B for
// the symbolic estimate (0 means DefaultSampleCols). Sampling is a fixed
// stride over the column range, so the probe — and every decision derived
// from it — is deterministic.
func ProbePair(a, b *spmat.CSC, sample int) (*Probe, error) { return probe(a, b, sample, nil) }

// probe is ProbePair that also measures every grid of grids, whose q and l
// the caller set.
func probe(a, b *spmat.CSC, sample int, grids []probedGrid) (*Probe, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("planner: inner dimension mismatch: A is %v, B is %v", a, b)
	}
	if sample <= 0 {
		sample = DefaultSampleCols
	}
	pr := &Probe{
		RowsA: a.Rows, Inner: a.Cols, ColsB: b.Cols,
		NnzA: a.NNZ(), NnzB: b.NNZ(),
		grids: grids,
		a:     a, b: b,
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

	// Exact flop count and every grid's slice flops: one pass over B's
	// entries.
	maxQ := 1
	for x := range grids {
		grids[x].init(pr)
		maxQ = max(maxQ, grids[x].q)
	}
	pr.Flops = countFlops(a, b, grids)

	// Sampled symbolic probe: exact per-column flops and distinct output
	// rows for a deterministic stride of columns, each column's rows counted
	// into every grid's output cells while they sit in scratch.
	sc := getScratch()
	defer scratchPool.Put(sc)
	sc.counts = slices.Grow(sc.counts[:0], maxQ)[:maxQ]
	pr.sampleFlops, pr.sampleNNZ = make([]int64, sample), make([]int64, sample)
	pr.sampleColID = make([]int32, sample)
	var sumNNZ int64
	var occupied int64
	for k := 0; k < sample; k++ {
		j := int32(int64(k) * int64(cols) / int64(sample))
		bRows, _ := b.Column(j)
		f, rows := sc.distinctRows(a, bRows)
		c := int64(len(rows))
		pr.sampleFlops[k], pr.sampleNNZ[k], pr.sampleColID[k] = f, c, j
		for x := range grids {
			grids[x].add(sc.counts, rows, j)
		}
		sumNNZ += c
		if c > 0 {
			occupied++
		}
	}
	pr.NnzCEst = int64(pr.scale * float64(sumNNZ))
	pr.NzcCEst = int64(pr.scale * float64(occupied))
	for x := range grids {
		grids[x].result(pr.scale)
	}
	return pr, nil
}

// countFlops returns the flop count of A·B — Σ over B's entries in rows r of
// A column r's entry count — and adds each entry's share to the slice of
// every grid that holds r.
func countFlops(a, b *spmat.CSC, grids []probedGrid) int64 {
	var flops int64
	for _, r := range entryRows(b) {
		f := a.ColNNZ(r)
		flops += f
		for x := range grids {
			g := &grids[x]
			g.sliceFlops[g.slices.index(r)] += f
		}
	}
	return flops
}

// grid returns what the probe measured on the q×q×l grid, or nil.
func (pr *Probe) grid(q, l int) *probedGrid {
	for x := range pr.grids {
		if g := &pr.grids[x]; g.q == q && g.l == l {
			return g
		}
	}
	return nil
}

// entryRows returns the row indices of m's entries, column after column.
func entryRows(m *spmat.CSC) []int32 { return m.RowIdx[m.ColPtr[0]:m.ColPtr[m.Cols]] }

// scratch is one planning call's reusable buffers: the probe's presence
// bitmap, hash set and distinct rows, and the sparse-comm statistics' radix
// sort (rows, touched), row block per A entry (blocks) and row-block marks
// (counts, which the probe uses for row-block counts). Every call takes its
// own from scratchPool and puts it back when it returns, so concurrent plans
// never share one, and a warm process plans without growing them again.
type scratch struct {
	rows, slots, touched, blocks []int32
	marks                        []uint64
	counts                       []int
}

var scratchPool sync.Pool

func getScratch() *scratch {
	sc, _ := scratchPool.Get().(*scratch)
	if sc == nil {
		sc = new(scratch)
	}
	return sc
}

// distinctRows returns the flop count of the B column whose entries have rows
// bRows, and the ascending distinct rows of A it reaches — in sc.rows, valid
// until the next call. A column whose flops pay for a presence bitmap over
// A's rows (useBitmap) marks its rows there and reads them back in ascending
// order by walking the words, clearing them as it goes. Any other column's
// rows pass through an open-addressed set sized for that column —
// 2·min(flops, rows) slots rounded up to a power of two, a slot holding row+1
// and 0 when empty — so only the distinct ones are sorted. Either way that is
// O(flops) a column, and no buffer is sized by A's row count alone, which an
// uploaded header can claim without a byte to back it.
func (sc *scratch) distinctRows(a *spmat.CSC, bRows []int32) (int64, []int32) {
	var f int64
	for _, r := range bRows {
		f += a.ColNNZ(r)
	}
	rows := sc.rows[:0]
	if useBitmap(a.Rows, f) {
		words := (int(a.Rows) + 63) / 64
		if words > len(sc.marks) {
			sc.marks = make([]uint64, words)
		}
		marks := sc.marks[:words]
		for _, r := range bRows {
			aRows, _ := a.Column(r)
			for _, i := range aRows {
				marks[i>>6] |= uint64(1) << (i & 63)
			}
		}
		for x, w := range marks {
			if w == 0 {
				continue
			}
			for ; w != 0; w &= w - 1 {
				rows = append(rows, int32(x<<6|bits.TrailingZeros64(w)))
			}
			marks[x] = 0
		}
	} else {
		size := 8
		for int64(size) < 2*min(f, int64(a.Rows)) {
			size *= 2
		}
		if size > len(sc.slots) {
			sc.slots = make([]int32, size)
		}
		set, mask := sc.slots[:size], uint32(size-1)
		clear(set)
		for _, r := range bRows {
			aRows, _ := a.Column(r)
			for _, i := range aRows {
				h := uint32(i) * 2654435769 & mask
				for set[h] != 0 && set[h] != i+1 {
					h = (h + 1) & mask
				}
				if set[h] == 0 {
					set[h] = i + 1
					rows = append(rows, i)
				}
			}
		}
		slices.Sort(rows)
	}
	sc.rows = rows
	return f, rows
}

// sortedRows returns a copy of rows, all below limit, sorted ascending, in
// sc.rows or sc.touched, valid until the next call: an LSD radix sort in as few passes of at most 11 bits
// as limit−1 needs — two for a million rows — so O(len(rows)) per pass.
func (sc *scratch) sortedRows(rows []int32, limit int32) []int32 {
	keys := append(sc.rows[:0], rows...)
	tmp := slices.Grow(sc.touched[:0], len(keys))[:len(keys)]
	width := bits.Len32(uint32(max(limit-1, 0)))
	passes := (width + 10) / 11
	var count [1 << 11]int
	for p := 0; p < passes; p++ {
		shift, digits := uint(p*width/passes), uint((p+1)*width/passes-p*width/passes)
		mask := int32(1)<<digits - 1
		next := count[:mask+1]
		clear(next)
		for _, r := range keys {
			next[r>>shift&mask]++
		}
		at := 0
		for d, c := range next {
			next[d] = at
			at += c
		}
		for _, r := range keys {
			d := r >> shift & mask
			tmp[next[d]] = r
			next[d]++
		}
		keys, tmp = tmp, keys
	}
	sc.rows, sc.touched = keys, tmp
	return keys
}

// init sizes the grid's counts and bounds for pr's shapes.
func (g *probedGrid) init(pr *Probe) {
	g.slices = partitionOf(distmat.NewADist(pr.RowsA, pr.Inner, g.q, g.l).ColSlices())
	g.sliceFlops = make([]int64, g.q*g.l)
	g.rowB, g.colB = spmat.PartBounds(pr.RowsA, g.q), partitionOf(spmat.PartBounds(pr.ColsB, g.q))
	g.cellNNZ = make([]float64, g.q*g.q)
}

// add folds in the ascending distinct rows of the sampled output column j,
// each row block's count one binary search (n is scratch of at least q ints).
func (g *probedGrid) add(n []int, rows []int32, j int32) {
	n = n[:g.q]
	rowBlockSizes(n, rows, g.rowB)
	c := g.colB.index(j)
	for i, x := range n {
		g.cellNNZ[i*g.q+c] += float64(x)
		g.occupied += int64(min(x, 1))
	}
}

// result sets the grid's two estimates from the sample. The output
// imbalance is the max/mean ratio of the per-rank output volume on the q×q
// layer grid — the factor separating the fiber exchange's critical-path rank
// from the balanced mean on power-law outputs (hub rows concentrate merged
// entries on a few process rows); 1 for q = 1 or an empty sample. The
// occupied cells are Σ over destination ranks of the occupied columns of
// their merged fiber piece — the column-scan work of an all-DCSC
// Merge-Fiber — extrapolated by the probe's column scale.
func (g *probedGrid) result(scale float64) {
	g.imbalance, g.cells = 1, scale*float64(g.occupied)
	if g.q <= 1 {
		return
	}
	var max, sum float64
	for _, v := range g.cellNNZ {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum > 0 {
		g.imbalance = max * float64(len(g.cellNNZ)) / sum
	}
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
// works in, flattened s·l+k: the probe's slice flops when it measured the
// grid, else one pass over B's entries. Uniform when the multiplication has
// no flops.
func (pr *Probe) SliceWeights(q, l int) []float64 {
	g := pr.grid(q, l)
	if g == nil {
		one := []probedGrid{{q: q, l: l}}
		one[0].init(pr)
		countFlops(pr.a, pr.b, one)
		g = &one[0]
	}
	w := make([]float64, q*l)
	var total float64
	for x, sum := range g.sliceFlops {
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
	// and the probe's two estimates over the sampled output structure on the
	// grid (probedGrid).
	sliceModelDone        bool
	uQL, uL               float64
	perSliceQL, perLayerL []float64
	maxLayerQL, maxLayerL float64
	outImbalance          float64
	fiberCells            float64

	// Sparse-comm statistics (computeSubsetStat, computed lazily — only
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
	g := pr.grid(gs.q, gs.l)
	gs.outImbalance, gs.fiberCells = g.imbalance, g.cells
	gs.sliceModelDone = true
}

// computeSubsetStat fills the sparse-comm statistics: exactly the quantities
// the runtime's subset path derives at run time. Receiver (i, j, k)'s stage-s
// column subset is the occupied-row set of B̃(s,j,k) — and because A's
// column slices align with B's row slices (ADist.ColSlices and
// BDist.RowSlices are the same bounds), a global inner index r in that
// support touches global A column r. Per receiver column j the inner indices
// B's entries there touch are gathered, sorted and deduped; walked in order,
// each falls in the next slice s·l+k of BDist.RowSlices, and A column r's
// entries, counted per row block, fold into per-(A block, receiver)
// occupancy. That is O(nnz(A) + nnz(B)) plus A column r's row-block runs for
// each receiver that touches r, with scratch sized by the operands' entries,
// never by a dimension.
func computeSubsetStat(gs *gridStat, a, b *spmat.CSC) {
	if gs.subStatDone {
		return
	}
	q, l := gs.q, gs.l
	gs.aSubNE = make([]int64, q*q*l*q)
	gs.aSubNNZ = make([]int64, q*q*l*q)
	gs.bRowSup = make([]int64, q*q*l)

	da, db := distmat.NewADist(a.Rows, a.Cols, q, l), distmat.NewBDist(b.Rows, b.Cols, q, l)
	inner, rowB := db.RowSlices(), partitionOf(da.RowB)
	sc := getScratch()
	defer scratchPool.Put(sc)
	// blockOf[p] is the row block of A's p-th entry, found once per grid;
	// seen[i] == stamp marks row block i as holding an entry of the A column
	// visited stamp-th.
	aRows := entryRows(a)
	blockOf := slices.Grow(sc.blocks[:0], len(aRows))[:len(aRows)]
	for p, row := range aRows {
		blockOf[p] = int32(rowB.index(row))
	}
	seen := slices.Grow(sc.counts[:0], q)[:q]
	clear(seen)
	stamp, stride := 0, q*l*q
	for j := 0; j < q; j++ {
		entries := b.RowIdx[b.ColPtr[db.ColB[j]]:b.ColPtr[db.ColB[j+1]]]
		touched := sc.sortedRows(entries, b.Rows)
		sk := 0
		for x, r := range touched {
			if x > 0 && r == touched[x-1] {
				continue
			}
			for r >= inner[sk+1] {
				sk++
			}
			s, k := sk/l, sk%l
			gs.bRowSup[gs.blockIdx(s, j, k)]++
			// A block (i, s, k)'s entry for receiver j is i·stride + base.
			base := gs.blockIdx(0, s, k)*q + j
			stamp++
			// A run of entries in one row block (a sorted column's are
			// contiguous) adds its length at once.
			col := blockOf[a.ColPtr[r]-a.ColPtr[0] : a.ColPtr[r+1]-a.ColPtr[0]]
			for p := 0; p < len(col); {
				i, end := col[p], p+1
				for end < len(col) && col[end] == i {
					end++
				}
				idx := int(i)*stride + base
				if seen[i] != stamp {
					seen[i] = stamp
					gs.aSubNE[idx]++
				}
				gs.aSubNNZ[idx] += int64(end - p)
				p = end
			}
		}
	}
	sc.counts, sc.blocks = seen, blockOf
	gs.subStatDone = true
}

// blockIdx flattens (x, y, k) on a q×q×l grid.
func (gs *gridStat) blockIdx(x, y, k int) int { return (x*gs.q+y)*gs.l + k }

// partition is ascending bounds (PartBounds output, or slices of it) with
// the reciprocal of their mean spacing in 32.32 fixed point, from which
// index guesses a part.
type partition struct {
	bounds []int32
	recip  uint64
}

func partitionOf(bounds []int32) partition {
	n := len(bounds) - 1
	return partition{bounds, uint64(n) << 32 / (uint64(bounds[n]-bounds[0]) + 1)}
}

// index returns the part of v: the smallest i with bounds[i+1] > v, which is
// the count of bounds[1:] at or below v. It is guessed from the mean spacing
// and corrected by walking, which for near-even bounds is rarely a step — a
// binary search would mispredict a branch at nearly every level.
func (p partition) index(v int32) int {
	b := p.bounds
	parts := len(b) - 1
	off := uint64(min(max(v-b[0], 0), b[parts]-b[0]))
	i := int(off * p.recip >> 32)
	for i < parts && b[i+1] <= v {
		i++
	}
	for i > 0 && b[i] > v {
		i--
	}
	return i
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
