// Package tricount counts triangles in an undirected graph with the masked
// SpGEMM formulation the paper cites as an SpGEMM driver [3]: split the
// adjacency matrix into strictly lower (L) and upper (U) triangles; then
// the number of triangles is Σ ((L·U) .* L) — for an edge i>j, (L·U)(i,j)
// counts the common neighbors k smaller than both endpoints, so each
// triangle is counted exactly once.
package tricount

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// CountSerial counts triangles of the symmetric 0/1 adjacency matrix adj
// (self loops are ignored). It uses the masked kernel, which skips wedge
// entries outside the graph instead of materializing L·U.
func CountSerial(adj *spmat.CSC) (int64, error) {
	if adj.Rows != adj.Cols {
		return 0, fmt.Errorf("tricount: adjacency matrix must be square, got %v", adj)
	}
	l := genmat.LowerTriangle(adj)
	u := genmat.UpperTriangle(adj)
	masked := localmm.MaskedSpGEMM(l, u, l, semiring.PlusTimes())
	return int64(masked.Sum() + 0.5), nil
}

// CountVia counts triangles with the L·U product delegated to mul —
// typically (*service.Client).MultiplyMatrices against a spgemmd daemon, so
// repeat counts on a resident graph skip probe work. The wedge matrix comes
// back whole (the batch-by-batch mask is an engine-local optimization) and
// is masked client-side.
func CountVia(adj *spmat.CSC, mul apps.MultiplyFunc) (int64, error) {
	if adj.Rows != adj.Cols {
		return 0, fmt.Errorf("tricount: adjacency matrix must be square, got %v", adj)
	}
	l := genmat.LowerTriangle(adj)
	u := genmat.UpperTriangle(adj)
	wedges, err := mul(l, u, "plus-times")
	if err != nil {
		return 0, err
	}
	masked := spmat.Mask(wedges, l)
	return int64(masked.Sum() + 0.5), nil
}

// CountDistributed counts triangles using BatchedSUMMA3D for the L·U product
// on the simulated cluster; the mask-and-sum runs inside the per-batch hook,
// so the wedge matrix (which can dwarf the graph) never materializes — the
// memory-constrained pattern of Sec. I.
func CountDistributed(adj *spmat.CSC, rc core.RunConfig) (int64, *mpi.Summary, error) {
	if adj.Rows != adj.Cols {
		return 0, nil, fmt.Errorf("tricount: adjacency matrix must be square, got %v", adj)
	}
	l := genmat.LowerTriangle(adj)
	u := genmat.UpperTriangle(adj)

	// Per-rank partial sums, accumulated inside hooks: each hook sees the
	// local rows of a batch of wedge columns, masks them against the
	// matching L entries, and adds to its rank's partial count.
	partial := make([]int64, rc.P)
	hook := func(rank int) core.BatchHook {
		return func(_ int, globalCols []int32, c *spmat.CSC) *spmat.CSC {
			rowOff := core.RowOffsetFor(adj.Rows, rc.P, rc.L, rank)
			var sum int64
			for x := int32(0); x < c.Cols; x++ {
				gcol := globalCols[x]
				rows, vals := c.Column(x)
				for p := range rows {
					grow := rows[p] + rowOff
					if l.At(grow, gcol) != 0 {
						sum += int64(vals[p] + 0.5)
					}
				}
			}
			partial[rank] += sum
			return nil
		}
	}
	_, summary, err := core.MultiplyDiscard(l, u, rc, hook)
	if err != nil {
		return 0, nil, err
	}
	var total int64
	for _, s := range partial {
		total += s
	}
	return total, summary, nil
}
