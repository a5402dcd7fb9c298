package core

import (
	"fmt"
	"sort"

	"repro/internal/distmat"
	"repro/internal/grid"
	"repro/internal/spmat"
)

// Proc is one rank's execution context for a distributed SpGEMM C = A·B.
type Proc struct {
	G    *grid.Grid3D
	Opts Options

	// DA and DB describe the global distributions of A (column-sliced into
	// layers) and B (row-sliced into layers).
	DA *distmat.ADist
	DB *distmat.BDist

	// LocalA and LocalB are this rank's pieces, stored per Opts.Format
	// (CSC, DCSC, or the per-block auto heuristic).
	LocalA, LocalB spmat.Matrix

	// bt is the block-cyclic batching of this rank's B block column; set
	// once b is known.
	bt distmat.Batching

	// pipe is the cross-batch pipeline state (overlap ledger plus the
	// prefetched next-batch broadcasts), reset by every BatchedSUMMA3D.
	pipe pipeState

	// sc is the column-subset A-broadcast state (Opts.SparseComm), reset by
	// every BatchedSUMMA3D alongside pipe.
	sc sparseComm
}

// Setup wires a Proc on one rank that holds the global operands: the rank
// cuts its own two pieces out (distmat's LocalMat, one pass over the piece's
// columns). A is rows×inner, B is inner×cols. It is the self-contained form
// for a caller already inside a rank; the host entry points (Multiply,
// MultiplyDiscard, SymbolicBatches) instead split both operands once for all
// ranks and hand each its pieces through SetupLocal: ranks that share a
// column range would each walk it, A q times and B q·l times in all.
func Setup(g *grid.Grid3D, a, b *spmat.CSC, opts Options) (*Proc, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("core: inner dimension mismatch: A is %v, B is %v", a, b)
	}
	da := distmat.NewADist(a.Rows, a.Cols, g.Q, g.L)
	db := distmat.NewBDist(b.Rows, b.Cols, g.Q, g.L)
	return SetupLocal(g, da, db,
		da.LocalMat(a, g.I, g.J, g.K, opts.Format),
		db.LocalMat(b, g.I, g.J, g.K, opts.Format), opts), nil
}

// SetupLocal wires a Proc from already-local pieces (used when a pipeline
// keeps matrices distributed between operations, e.g. Markov clustering
// iterations). The descriptors must describe the same global shapes on the
// same grid. The pieces are re-stored per opts.Format.
func SetupLocal(g *grid.Grid3D, da *distmat.ADist, db *distmat.BDist, localA, localB spmat.Matrix, opts Options) *Proc {
	opts = opts.withDefaults()
	return &Proc{
		G: g, Opts: opts, DA: da, DB: db,
		LocalA: spmat.WithFormat(localA, opts.Format),
		LocalB: spmat.WithFormat(localB, opts.Format),
	}
}

// Result is one rank's output of BatchedSUMMA3D.
type Result struct {
	// C is the local output piece with sorted columns; its columns are in
	// batch-major order and GlobalCols maps each to its global index.
	C *spmat.CSC
	// GlobalCols[x] is the global column of local column x.
	GlobalCols []int32
	// RowOffset is the global row index of local row 0.
	RowOffset int32
	// Batches is the number of batches executed.
	Batches int
	// SymbolicB is what the symbolic step estimated (0 when skipped).
	SymbolicB int
	// LocalFlops counts multiplications performed by this rank.
	LocalFlops int64
	// UnmergedNNZ is Σ over stages and batches of per-stage product nonzeros
	// (the D̃ storage the symbolic step bounds).
	UnmergedNNZ int64
	// MergedLayerNNZ is Σ over batches of nnz(D̃) after Merge-Layer.
	MergedLayerNNZ int64
	// PeakMemBytes is the modeled per-rank memory high-water mark
	// (r · live nonzeros), demonstrating the memory-constrained claim.
	PeakMemBytes int64
	// BatchNNZ is the per-batch local output size before any hook pruning.
	BatchNNZ []int64
}

// BatchHook is invoked after each batch's Merge-Fiber with the batch index,
// the global columns the local piece covers, and the local piece itself
// (sorted columns). The returned matrix replaces the piece in the
// concatenated result; returning nil keeps the piece. Applications use the
// hook to prune or stream out batches (HipMCL, Sec. V-C).
type BatchHook func(batch int, globalCols []int32, c *spmat.CSC) *spmat.CSC

// AssembleResults reconstructs the global C from every rank's Result by
// counting and placing: one pass over the ranks' column pointers sizes every
// global column, C is allocated once, and each rank column lands with one
// copy plus its row offset. A global column is shared by the q ranks of one
// process column, whose row blocks are disjoint and ascend with the process
// row, so placing them in row-offset order leaves every column sorted
// without a sort. Nil results (ranks that produced nothing) are skipped.
func AssembleResults(results []*Result, rows, cols int32) (*spmat.CSC, error) {
	ranks := make([]*Result, 0, len(results))
	for _, r := range results {
		if r != nil {
			ranks = append(ranks, r)
		}
	}
	sort.SliceStable(ranks, func(x, y int) bool { return ranks[x].RowOffset < ranks[y].RowOffset })
	out := &spmat.CSC{Rows: rows, Cols: cols, ColPtr: make([]int64, cols+1), SortedCols: true}
	for _, r := range ranks {
		if r.RowOffset < 0 || r.RowOffset+r.C.Rows > rows {
			return nil, fmt.Errorf("core: result rows [%d,%d) out of range for %dx%d", r.RowOffset, r.RowOffset+r.C.Rows, rows, cols)
		}
		out.SortedCols = out.SortedCols && r.C.SortedCols
		for x, gc := range r.GlobalCols {
			if gc < 0 || gc >= cols {
				return nil, fmt.Errorf("core: result column %d out of range for %dx%d", gc, rows, cols)
			}
			out.ColPtr[gc+1] += r.C.ColNNZ(int32(x))
		}
	}
	for j := int32(0); j < cols; j++ {
		out.ColPtr[j+1] += out.ColPtr[j]
	}
	out.RowIdx, out.Val = make([]int32, out.ColPtr[cols]), make([]float64, out.ColPtr[cols])
	next := append([]int64(nil), out.ColPtr[:cols]...)
	for _, r := range ranks {
		for x, gc := range r.GlobalCols {
			rws, vls := r.C.Column(int32(x))
			at := next[gc]
			for q, row := range rws {
				out.RowIdx[at+int64(q)] = row + r.RowOffset
			}
			copy(out.Val[at:], vls)
			next[gc] = at + int64(len(rws))
		}
	}
	// Only a hook that hands back unsorted pieces leaves anything to do here.
	out.SortColumns()
	return out, nil
}

// colScanWork is the column-metadata share of a block's modeled work: the
// dense column count for CSC, the stored-column count for DCSC. This is the
// O(n)-per-block term the doubly-compressed path removes from the modeled
// critical path.
func colScanWork(m spmat.Matrix) int64 {
	if m.Format() == spmat.FormatDCSC {
		return m.NonEmptyCols()
	}
	_, cols := m.Dims()
	return int64(cols)
}
