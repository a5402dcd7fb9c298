package planner

import (
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// sparseABcast predicts the per-rank A-Broadcast cost of the column-subset
// path, max over ranks — byte-exact against the runtime meters. Per process
// row (i, k) it replays mpi.IbcastColsStart's stage decision: every receiver
// j's subset wire size is computed from the exact occupancy statistics
// (computeSubsetStat), the root is charged like a personalized send of the
// summed subsets, each receiver like one point-to-point receive, and the
// whole stage falls back to the full tree broadcast when that models cheaper
// (unless force). When the symbolic pass is skipped the runtime arms the
// path with one support Allgather along each process column, charged to
// A-Broadcast; that term joins each rank's total before the max so the
// critical-path rank is the right one.
func (pl *Plan) sparseABcast(gs *gridStat, cm mpi.CostModel, b int, force bool, wireA func(i, s, k int) int64) float64 {
	computeSubsetStat(gs, pl.a, pl.b)
	q, l := gs.q, gs.l
	var worst float64
	nSub := make([]int64, q)
	perJ := make([]float64, q)
	for k := 0; k < l; k++ {
		for i := 0; i < q; i++ {
			for j := range perJ {
				perJ[j] = 0
			}
			for s := 0; s < q; s++ {
				base := gs.blockIdx(i, s, k) * q
				var sum, maxRecv int64
				for j := 0; j < q; j++ {
					if j == s {
						continue
					}
					n := spmat.WireBytesFor(gs.aCols[s*l+k], gs.aSubNE[base+j], gs.aSubNNZ[base+j])
					nSub[j] = n
					sum += n
					if n > maxRecv {
						maxRecv = n
					}
				}
				fullCost := cm.BcastCost(q, wireA(i, s, k))
				rootCost := cm.AllToAllCost(q, sum)
				recvCost := cm.AlphaSec + cm.BetaSecPerByte*float64(maxRecv)
				subset := force || max(rootCost, recvCost) < fullCost
				for j := 0; j < q; j++ {
					switch {
					case !subset:
						perJ[j] += fullCost
					case j == s:
						perJ[j] += rootCost
					default:
						perJ[j] += cm.AlphaSec + cm.BetaSecPerByte*float64(nSub[j])
					}
				}
			}
			for j := 0; j < q; j++ {
				tot := float64(b) * perJ[j]
				if !pl.In.Symbolic {
					// Fallback Allgather on the (j, k) process column: every
					// rank receives all q supports, 4 bytes per index.
					var supBytes int64
					for s := 0; s < q; s++ {
						supBytes += 4 * gs.bRowSup[gs.blockIdx(s, j, k)]
					}
					tot += cm.AllreduceCost(q, 0) + cm.BetaSecPerByte*float64(supBytes)
				}
				if tot > worst {
					worst = tot
				}
			}
		}
	}
	return worst
}
