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
	rankRuntime

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

	// pipe is the cross-batch pipeline state (the prefetched next-batch
	// broadcasts), reset with the overlap ledger by every BatchedSUMMA3D.
	pipe pipeState

	// sc is the column-subset A-broadcast state (Opts.SparseComm), reset by
	// every BatchedSUMMA3D alongside pipe.
	sc sparseComm

	// lent holds what this rank lent that others may still read, each with
	// the batch it belongs to: on a grid with l > 1 the batch's Merge-Layer
	// outputs, which the fiber peers read through the by-reference exchange,
	// and with b > 1 the batch's piece of B, which the column peers read,
	// broadcast by reference, until they have finished the batch's
	// Merge-Layer, the last reader of its stages' plans. Batch t's go back at
	// batch t+1's exchange post (giveBack): IalltoallvStart returns only once
	// every fiber peer has posted, and a peer posts batch t+1 only after
	// finishing batch t; IbcastStart returns only once every column peer has
	// posted, and by then this rank has posted a broadcast of batch t+1 that
	// every peer posts only after finishing batch t's Merge-Layer (stage 0
	// staged, stage 1 pipelined; at q = 1 the rank is the piece's only
	// reader). The last batch's, a prefetched piece and an aborted run's go
	// back once the world has ended (launch).
	lent []lentMatrix

	// res is the Result BatchedSUMMA3D is filling, which the launcher
	// releases when the run fails: nobody else will read it.
	res *Result

	// discard marks a rank whose batches are dropped once the hook has seen
	// them (MultiplyDiscard): the hook is handed each batch output on loan for
	// the duration of the call.
	discard bool

	// lendBatch marks a rank whose batch outputs have a known last reader —
	// the hook of a discarding run, or, on a run no hook sees, whoever
	// releases the Result (Result.Release) — so each is lent, on every grid
	// (lends). BatchedSUMMA3D sets it.
	lendBatch bool
}

// lentMatrix is a lent matrix of one batch (Proc.lent).
type lentMatrix struct {
	batch int
	m     spmat.Matrix
}

// giveBack releases the matrices the rank lent for the batches before t
// (spmat.Release) and keeps the rest.
func (p *Proc) giveBack(t int) {
	kept := p.lent[:0]
	for _, e := range p.lent {
		if e.batch < t {
			spmat.Release(e.m)
		} else {
			kept = append(kept, e)
		}
	}
	clear(p.lent[len(kept):])
	p.lent = kept
}

// SetupLocal wires a Proc from already-local pieces (used when a pipeline
// keeps matrices distributed between operations, e.g. Markov clustering
// iterations). The descriptors must describe the same global shapes on the
// same grid. The pieces are re-stored per opts.Format.
func SetupLocal(g *grid.Grid3D, da *distmat.ADist, db *distmat.BDist, localA, localB spmat.Matrix, opts Options) *Proc {
	opts = opts.withDefaults()
	return &Proc{
		rankRuntime: rankRuntime{world: g.World, threads: opts.Threads},
		G:           g, Opts: opts, DA: da, DB: db,
		LocalA: spmat.WithFormat(localA, opts.Format),
		LocalB: spmat.WithFormat(localB, opts.Format),
	}
}

// Result is one rank's output of BatchedSUMMA3D. On a run no hook sees, the
// pieces are lent kernel outputs (see Release); everywhere else they are the
// caller's.
type Result struct {
	// Pieces are the rank's batch outputs in batch order, each as Merge-Fiber
	// made it — sorted columns, CSC or DCSC — or as a hook handed it back;
	// their columns, concatenated, are the ones GlobalCols lists.
	// AssembleResults and ProductSegments read them in place.
	Pieces []spmat.Matrix
	// GlobalCols[x] is the global column of local column x. A discarding run
	// no hook sees (MultiplyDiscard with no HookFactory) keeps no piece to
	// place and leaves it nil.
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

// Release gives back the pieces (spmat.Release) and empties Pieces. A run no
// hook sees keeps its batch outputs lent, so the reader done with them
// releases them: Multiply once it has assembled the product, the daemon once
// it has streamed it. Nothing may read the pieces, or keep a slice of them,
// afterwards; every other field stays. A Result nobody releases costs only
// the arrays' reuse. Releasing twice, or a nil Result, does nothing.
func (r *Result) Release() {
	if r == nil {
		return
	}
	for _, m := range r.Pieces {
		spmat.Release(m)
	}
	r.Pieces = nil
}

// NNZ returns the number of entries the rank's pieces hold.
func (r *Result) NNZ() int64 {
	var n int64
	for _, pc := range r.Pieces {
		n += pc.NNZ()
	}
	return n
}

// sorted reports whether every piece has sorted columns.
func (r *Result) sorted() bool {
	for _, pc := range r.Pieces {
		if !pc.Sorted() {
			return false
		}
	}
	return true
}

// BatchHook is invoked after each batch's Merge-Fiber with the batch index,
// the global columns the local piece covers — a window of the rank's
// Result.GlobalCols, which the hook reads and never writes — and the local
// piece itself (sorted columns). The returned matrix, which must keep the piece's shape,
// replaces the piece in the rank's Result; returning nil keeps the piece.
// Applications use the hook to prune or stream out batches (HipMCL, Sec.
// V-C). Under MultiplyDiscard the piece is borrowed for the duration of the
// call: its entries may be the kernels' scratch, refilled once the hook
// returns, so a hook reads what it needs inside the call and keeps nothing
// that shares the piece's arrays. Everywhere else the piece is the caller's.
type BatchHook func(batch int, globalCols []int32, c *spmat.CSC) *spmat.CSC

// storedCols is a piece's columns read positionally: stored column p holds
// entries cp[p]:cp[p+1] of rows and vals and is local column jc[p] — or p
// itself for a CSC piece (jc nil), which stores its empty columns too.
type storedCols struct {
	jc    []int32
	cp    []int64
	rows  []int32
	vals  []float64
	width int // the piece's column count
}

func storedColsOf(m spmat.Matrix) storedCols {
	switch m := m.(type) {
	case *spmat.CSC:
		return storedCols{cp: m.ColPtr, rows: m.RowIdx, vals: m.Val, width: int(m.Cols)}
	case *spmat.DCSC:
		return storedCols{jc: m.JC, cp: m.CP, rows: m.IR, vals: m.Num, width: int(m.Cols)}
	}
	return storedColsOf(m.ToDCSC())
}

// n returns the number of stored columns.
func (s storedCols) n() int { return len(s.cp) - 1 }

// col returns the local column of stored column p.
func (s storedCols) col(p int) int {
	if s.jc == nil {
		return p
	}
	return int(s.jc[p])
}

// rankOrder returns the non-nil results by ascending RowOffset, after
// checking that every one fits a rows×cols product. A global column is
// shared by the q ranks of one process column, whose row blocks are disjoint
// and ascend with the process row, so visiting ranks in this order visits
// every column's entries in ascending row blocks.
func rankOrder(results []*Result, rows, cols int32) ([]*Result, error) {
	ranks := make([]*Result, 0, len(results))
	for _, r := range results {
		if r != nil {
			ranks = append(ranks, r)
		}
	}
	sort.SliceStable(ranks, func(x, y int) bool { return ranks[x].RowOffset < ranks[y].RowOffset })
	for _, r := range ranks {
		width := 0
		for _, pc := range r.Pieces {
			pr, pcols := pc.Dims()
			if r.RowOffset < 0 || int64(r.RowOffset)+int64(pr) > int64(rows) {
				return nil, fmt.Errorf("core: result rows [%d,%d) out of range for %dx%d", r.RowOffset, int64(r.RowOffset)+int64(pr), rows, cols)
			}
			if r0, _ := r.Pieces[0].Dims(); pr != r0 {
				return nil, fmt.Errorf("core: result pieces of %d and %d rows", r0, pr)
			}
			width += int(pcols)
		}
		if width != len(r.GlobalCols) {
			return nil, fmt.Errorf("core: result pieces have %d columns, GlobalCols names %d", width, len(r.GlobalCols))
		}
		for _, gc := range r.GlobalCols {
			if gc < 0 || gc >= cols {
				return nil, fmt.Errorf("core: result column %d out of range for %dx%d", gc, rows, cols)
			}
		}
	}
	return ranks, nil
}

// AssembleResults reconstructs the global C from every rank's Result by
// counting and placing, reading every piece in place — a DCSC piece by its
// stored columns, a CSC piece by its columns: one pass over the pieces'
// column pointers sizes every global column, C is allocated once, and each
// rank column lands with one copy plus its row offset. Ranks are placed in
// row-offset order (rankOrder), which leaves every column sorted without a
// sort. Nil results (ranks that produced nothing) are skipped.
func AssembleResults(results []*Result, rows, cols int32) (*spmat.CSC, error) {
	ranks, err := rankOrder(results, rows, cols)
	if err != nil {
		return nil, err
	}
	out := &spmat.CSC{Rows: rows, Cols: cols, ColPtr: make([]int64, cols+1), SortedCols: true}
	for _, r := range ranks {
		out.SortedCols = out.SortedCols && r.sorted()
		base := 0
		for _, pc := range r.Pieces {
			s := storedColsOf(pc)
			for p := range s.n() {
				out.ColPtr[r.GlobalCols[base+s.col(p)]+1] += s.cp[p+1] - s.cp[p]
			}
			base += s.width
		}
	}
	for j := int32(0); j < cols; j++ {
		out.ColPtr[j+1] += out.ColPtr[j]
	}
	out.RowIdx, out.Val = make([]int32, out.ColPtr[cols]), make([]float64, out.ColPtr[cols])
	next := append([]int64(nil), out.ColPtr[:cols]...)
	for _, r := range ranks {
		base := 0
		for _, pc := range r.Pieces {
			s := storedColsOf(pc)
			for p := range s.n() {
				lo, hi := s.cp[p], s.cp[p+1]
				gc := r.GlobalCols[base+s.col(p)]
				at := next[gc]
				for q, row := range s.rows[lo:hi] {
					out.RowIdx[at+int64(q)] = row + r.RowOffset
				}
				copy(out.Val[at:], s.vals[lo:hi])
				next[gc] = at + hi - lo
			}
			base += s.width
		}
	}
	// Only a hook that hands back unsorted pieces leaves anything to do here.
	out.SortColumns()
	return out, nil
}

// ProductSegments returns the global C the ranks' results hold without
// assembling it: every non-empty rank column becomes a segment of its global
// column, read in place from its piece, and each global column's segments are
// ordered by row offset (rankOrder). Its WriteTo streams C's wire encoding
// straight from the pieces, byte for byte
// AssembleResults(results, rows, cols).Serialize().
func ProductSegments(results []*Result, rows, cols int32) (*spmat.Segmented, error) {
	ranks, err := rankOrder(results, rows, cols)
	if err != nil {
		return nil, err
	}
	seg := &spmat.Segmented{Rows: rows, Cols: cols, SegPtr: make([]int, cols+1), Sorted: true}
	for _, r := range ranks {
		seg.Sorted = seg.Sorted && r.sorted()
		base := 0
		for _, pc := range r.Pieces {
			s := storedColsOf(pc)
			for p := range s.n() {
				if s.cp[p+1] > s.cp[p] {
					seg.SegPtr[r.GlobalCols[base+s.col(p)]+1]++
				}
			}
			base += s.width
		}
	}
	for j := int32(0); j < cols; j++ {
		seg.SegPtr[j+1] += seg.SegPtr[j]
	}
	seg.Segs = make([]spmat.Segment, seg.SegPtr[cols])
	next := append([]int(nil), seg.SegPtr[:cols]...)
	for _, r := range ranks {
		base := 0
		for _, pc := range r.Pieces {
			s := storedColsOf(pc)
			for p := range s.n() {
				if lo, hi := s.cp[p], s.cp[p+1]; hi > lo {
					gc := r.GlobalCols[base+s.col(p)]
					seg.Segs[next[gc]] = spmat.Segment{Rows: s.rows[lo:hi], Vals: s.vals[lo:hi], Offset: r.RowOffset}
					next[gc]++
				}
			}
			base += s.width
		}
	}
	return seg, nil
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
