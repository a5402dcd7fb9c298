package planner

import (
	"math"
	"sort"

	"repro/internal/spmat"
)

// The planner's statistics as they were computed before the cold plan was
// made cheaper — a lookup per sampled output row, sort.Search block lookups,
// per-entry block indices, and a slice model that recomputes every power in
// its clamp rescale. Kept as the reference the cheaper code must reproduce
// to the last bit (TestPlannerMatchesReference, through NewReference).

// refPartIndex is partIndex by sort.Search.
func refPartIndex(bounds []int32, v int32) int {
	return sort.Search(len(bounds)-1, func(i int) bool { return bounds[i+1] > v })
}

// refUnmergedW is UnmergedW recomputing each slice's power in the rescale.
func refUnmergedW(pr *Probe, weights []float64) (float64, []float64) {
	perSlice := make([]float64, len(weights))
	var total float64
	for k, f := range pr.sampleFlops {
		c := float64(pr.sampleNNZ[k])
		if c <= 0 {
			continue
		}
		fm := float64(f)
		var colTotal float64
		for s, w := range weights {
			u := c * (1 - math.Pow(1-1/c, fm*w))
			perSlice[s] += u
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
			for s, w := range weights {
				perSlice[s] += adj * c * (1 - math.Pow(1-1/c, fm*w))
			}
		}
		total += clamped
	}
	for s := range perSlice {
		perSlice[s] *= pr.scale
	}
	return pr.scale * total, perSlice
}

// refOutputImbalance is outputImbalance with one block lookup per row.
func refOutputImbalance(pr *Probe, q int) float64 {
	if q <= 1 || len(pr.sampleRows) == 0 {
		return 1
	}
	rowB := spmat.PartBounds(pr.RowsA, q)
	colB := spmat.PartBounds(pr.ColsB, q)
	w := make([]float64, q*q)
	for k, rows := range pr.sampleRows {
		j := refPartIndex(colB, pr.sampleColID[k])
		for _, r := range rows {
			w[refPartIndex(rowB, r)*q+j]++
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

// refFiberOccupied is fiberOccupied with one block lookup per row.
func refFiberOccupied(pr *Probe, q int) float64 {
	if q < 1 || len(pr.sampleRows) == 0 {
		return 0
	}
	rowB := spmat.PartBounds(pr.RowsA, q)
	var cells int64
	for _, rows := range pr.sampleRows {
		last := -1
		for _, r := range rows {
			if i := refPartIndex(rowB, r); i != last {
				cells++
				last = i
			}
		}
	}
	return pr.scale * float64(cells)
}

// refSliceModel is sliceModel running the slice model twice at q = 1 too.
func refSliceModel(gs *gridStat, pr *Probe) {
	gs.uQL, gs.perSliceQL = refUnmergedW(pr, pr.SliceWeights(gs.q, gs.l))
	gs.uL, gs.perLayerL = refUnmergedW(pr, pr.LayerWeights(gs.q, gs.l))
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
	gs.outImbalance, gs.fiberCells = refOutputImbalance(pr, gs.q), refFiberOccupied(pr, gs.q)
	gs.sliceModelDone = true
}

// refGridStat is computeGridStat with per-entry block lookups on both sides.
func refGridStat(a, b *spmat.CSC, q, l int) *gridStat {
	gs := &gridStat{
		q: q, l: l,
		aNNZ: make([]int64, q*q*l), aNE: make([]int64, q*q*l),
		aCols: make([]int32, q*l),
		bNNZ:  make([]int64, q*q*l), bNE: make([]int64, q*q*l),
		bCols: make([]int32, q),
	}
	aRowB := spmat.PartBounds(a.Rows, q)
	aColB := spmat.PartBounds(a.Cols, q)
	colSlice := make([]int32, a.Cols)
	for s := 0; s < q; s++ {
		c0, c1 := aColB[s], aColB[s+1]
		sb := spmat.PartBounds(c1-c0, l)
		for k := 0; k < l; k++ {
			gs.aCols[s*l+k] = sb[k+1] - sb[k]
			for c := c0 + sb[k]; c < c0+sb[k+1]; c++ {
				colSlice[c] = int32(s*l + k)
			}
		}
	}
	seen := make([]int32, q)
	stamp := int32(0)
	a.EnumCols(func(j int32, rows []int32, _ []float64) {
		stamp++
		sk := int(colSlice[j])
		for _, r := range rows {
			i := refPartIndex(aRowB, r)
			idx := (i*q+sk/l)*l + sk%l
			gs.aNNZ[idx]++
			if seen[i] != stamp {
				seen[i] = stamp
				gs.aNE[idx]++
			}
		}
	})

	bColB := spmat.PartBounds(b.Cols, q)
	for j := 0; j < q; j++ {
		gs.bCols[j] = bColB[j+1] - bColB[j]
	}
	bRowB := spmat.PartBounds(b.Rows, q)
	innerB := make([][]int32, q)
	for i := 0; i < q; i++ {
		innerB[i] = spmat.PartBounds(bRowB[i+1]-bRowB[i], l)
	}
	seenIK := make([]int32, q*l)
	stamp = 0
	b.EnumCols(func(c int32, rows []int32, _ []float64) {
		stamp++
		j := refPartIndex(bColB, c)
		for _, r := range rows {
			i := refPartIndex(bRowB, r)
			k := refPartIndex(innerB[i], r-bRowB[i])
			idx := (i*q+j)*l + k
			gs.bNNZ[idx]++
			if ik := i*l + k; seenIK[ik] != stamp {
				seenIK[ik] = stamp
				gs.bNE[idx]++
			}
		}
	})
	return gs
}

// refSubsetStat is computeSubsetStat with sort.Search block lookups.
func refSubsetStat(gs *gridStat, a, b *spmat.CSC) {
	q, l := gs.q, gs.l
	gs.aSubNE = make([]int64, q*q*l*q)
	gs.aSubNNZ = make([]int64, q*q*l*q)
	gs.bRowSup = make([]int64, q*q*l)
	aRowB := spmat.PartBounds(a.Rows, q)
	cols := int(a.Cols)
	cnt := make([]int64, q*cols)
	a.EnumCols(func(j int32, rows []int32, _ []float64) {
		for _, r := range rows {
			cnt[refPartIndex(aRowB, r)*cols+int(j)]++
		}
	})
	bRowB := spmat.PartBounds(b.Rows, q)
	layerOf := make([]int, int(b.Rows))
	for s := 0; s < q; s++ {
		sb := spmat.PartBounds(bRowB[s+1]-bRowB[s], l)
		for k := 0; k < l; k++ {
			for r := bRowB[s] + sb[k]; r < bRowB[s]+sb[k+1]; r++ {
				layerOf[r] = k
			}
		}
	}
	bColB := spmat.PartBounds(b.Cols, q)
	touched := make([]bool, int(b.Rows))
	for j := 0; j < q; j++ {
		for i := range touched {
			touched[i] = false
		}
		for c := bColB[j]; c < bColB[j+1]; c++ {
			rows, _ := b.Column(c)
			for _, r := range rows {
				touched[r] = true
			}
		}
		for s := 0; s < q; s++ {
			for r := int(bRowB[s]); r < int(bRowB[s+1]); r++ {
				if !touched[r] {
					continue
				}
				k := layerOf[r]
				gs.bRowSup[gs.blockIdx(s, j, k)]++
				for i := 0; i < q; i++ {
					if n := cnt[i*cols+r]; n > 0 {
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
