// Package core implements the paper's algorithms: 2D sparse SUMMA (Alg 1),
// 3D sparse SUMMA (Alg 2), the distributed symbolic batch-count estimator
// (Alg 3), and the integrated communication-avoiding, memory-constrained
// BATCHEDSUMMA3D (Alg 4) with a per-batch application hook.
//
// Every rank executes inside the simulated MPI runtime; the seven step
// categories the paper reports (Symbolic, A-Broadcast, B-Broadcast,
// Local-Multiply, Merge-Layer, AllToAll-Fiber, Merge-Fiber) are metered per
// rank: measured wall time for computation, α–β modeled time and exact byte
// counts for communication.
//
// # Execution structure
//
// A distributed multiply is launched from the host by Multiply,
// MultiplyDiscard or MultiplyRanks with a RunConfig. They deal both operands
// out to all p ranks in one sweep each (Deal → distmat's Split — the only
// time the engine copies the operands) and then run on the dealt operands
// (MultiplyDealt, the entry point of a caller that keeps them across runs,
// as the daemon does for resident matrices). The host entry points lend
// their deal: its blocks are lent, their arrays drawn from spmat's free list
// of arrays and given back (spmat.Release, with the DCSC blocks' AUX arrays)
// once the call's run has ended, clean or aborted — no Result refers to a
// dealt block — so a warm one-shot call deals into the arrays the call
// before it gave back. A deal the caller made with Deal is allocated at its
// exact size and never released: it may serve any number of runs. That run is one launch on a
// World — a simulated cluster of p ranks in l layers: it checks the world and
// the dealt operands fit the run, each simulated rank takes its process grid
// (grid.New in the world's first run, kept for every later one), is handed
// its blocks in place (SetupLocal), and calls BatchedSUMMA3D collectively.
// The host entry points launch on a world built for the call; the daemon
// keeps its worlds across jobs (World.MultiplyDealt), so a warm job builds
// neither a world nor its communicators. A world whose run failed is broken
// and refuses every later run. A rank's
// Result keeps its batch outputs as Pieces, in the format Merge-Fiber made
// them; nothing on the rank concatenates or inflates them. MultiplyRanks
// returns the ranks' results as they are, C still distributed; Multiply adds
// the assembly of the global product (AssembleResults: count, allocate once,
// place, reading every piece in place), MultiplyDiscard empties every batch
// once the caller's hook has seen it. ProductSegments is the
// other reader: it lays the global product out as the pieces' column
// segments (spmat.Segmented) for a caller that streams its wire bytes
// without assembling it — the daemon's return_result response. A rank that
// holds the global operands could cut its own pieces out instead
// (distmat's LocalMat, then SetupLocal), but p ranks doing that walk A q
// times and B q·l times between them, so the host entry points do not. Inside,
// Symbolic3D picks the batch count b from the memory budget, and each batch
// runs one batch function (summa3DBatch): the per-layer stage products
// (stageProducts), one Merge-Layer, the fiber AllToAll, and the fiber merge.
// Symbolic3D and stageProducts share one stage loop (forEachStage). Under
// the staged schedule no stage product is materialized: every stage plans
// its multiply, and Merge-Layer runs one pass over all q plans that makes
// each output column's stage contributions in stage order and merges them
// as it goes. The pipelined schedule does that for the last stage and makes
// the earlier stages' products, whose multiplies hide the next stage's
// broadcasts. Every merge — Merge-Layer on either schedule, Merge-Fiber — is
// one call of one helper (Proc.merge) into one localmm pass
// (localmm.MulMerge), with whatever plans it has: all q, the last stage's,
// or none.
//
// # Lent outputs
//
// Every kernel output whose last reader is known is lent, not copied
// (localmm.Plan.Mul and localmm.MulMerge with lend): its entry arrays are a
// kernel worker's chunk, and its column metadata drawn from spmat's free
// list, until the rank gives them back (spmat.Release). The fiber split's
// views of a lent output carve their metadata from its shell
// (spmat.MatColRanges), so they live exactly as long as its entries and the
// peers read them under the same rule. Each lent output is released by
// exactly one owner, and that owner is whoever knows the output's last
// reader. Under the staged schedule
// no stage product exists to lend: Merge-Layer computes every stage's
// product inside its merge from the stages' plans (localmm.MulMerge), which
// it holds until its merge and then releases. There are five cases:
//
//   - A pipelined stage product — the q − 1 earlier ones; the last stage's is
//     never made, Merge-Layer computes it inside its merges from the stage's
//     plan, which it holds until its last window and then releases:
//     Merge-Layer accumulates the products into arrays of its own, and the
//     batch function releases them right after.
//   - Merge-Layer's output, on a grid with l > 1 (pipelined with q > 1, each
//     per-destination merge's). This rank's Merge-Fiber reads it and,
//     through the by-reference fiber exchange, so do the l − 1 fiber peers'.
//     It is released right after the next batch's exchange is posted, which
//     returns only once every peer has posted and so has finished this batch;
//     the last batch's are held in the Proc (Proc.lent) and released by the
//     launcher once the world has ended, aborted or not.
//   - Under MultiplyDiscard, Merge-Layer's output on a grid with l = 1: with
//     no fiber peers, Merge-Fiber passes it through as the batch output, and
//     BatchedSUMMA3D releases it once the hook has returned.
//   - Under MultiplyDiscard, Merge-Fiber's output on a grid with l > 1: the
//     batch output, released by BatchedSUMMA3D once the hook has returned —
//     the matrix Merge-Fiber made, not one the hook hands back.
//   - On a run no hook sees (MultiplyRanks or Multiply with no hook, the
//     daemon's return_result jobs), the kept batch output: Merge-Fiber's on
//     a grid with l > 1, Merge-Layer's, passed through, on l = 1. The rank's
//     Result keeps its pieces lent until their reader calls Result.Release:
//     Multiply once it has assembled the product, the daemon once it has
//     streamed it.
//
// The rule behind the batch-output cases is one (Proc.lends): the batch
// output is lent whenever its last reader is known — the hook of a
// discarding run, or the Result's reader when no hook sees it. A kept batch
// a hook has seen is not lent, since the hook may hold its piece: every piece
// a hook outside MultiplyDiscard is handed, and everything the Result of such
// a run holds, is owned. The hook of a discarding run is lent its piece for
// the call.
//
// The kernels' inputs are lent too. With b > 1 each batch's piece of B is
// copied from the rank's block into arrays drawn from spmat's free list
// (distmat.Batching.Piece), broadcast by reference along the process column,
// and released with the batch's Merge-Layer outputs at the next batch's
// exchange post, by which time every column peer has finished this batch's
// Merge-Layer (Proc.lent); the launcher releases the last batch's and a
// prefetched one. With b = 1 the piece is LocalB, which may be a lent deal
// block and is never released there. Values, entry order, work units, peak
// checkpoints and spans do not depend on what is lent.
//
// # Schedules
//
// The stage loop and the batch function support two schedules, selected by
// Options.Pipeline, which differ in at most two places: whether the next
// stage is posted before the current one runs, and, on a grid with q > 1 and
// l > 1, the order of Merge-Layer against the exchange post. With one stage
// there is no product to merge before the post, and with one layer no
// exchange to hide, so there the pipelined Merge-Layer merges once like the
// staged one and the two schedules differ in the broadcast prefetch alone.
//
//   - Staged (default): stage s's A- and B-broadcasts complete before its
//     local multiply starts, Merge-Layer merges once before the fiber
//     AllToAll is posted, and the exchange runs fully exposed — the paper's
//     schedule.
//   - Fully overlapped: stage s+1's broadcasts are posted (mpi.IbcastStart)
//     before stage s's multiply; the last stage of batch t posts batch t+1's
//     stage-0 broadcasts (the batch piece is extracted one batch ahead by
//     BatchedSUMMA3D) so the pipeline never drains at a batch boundary; and
//     on a grid with q > 1 and l > 1 Merge-Layer is partitioned by
//     destination layer so the fiber exchange (mpi.IalltoallvStart)
//     completes while the own-layer share still runs.
//     An overlap ledger (pipeline.go) converts measured compute between a
//     collective's post and wait into hiding credit — each compute second
//     hides at most one collective — and the hidden share is charged to the
//     *-Hidden categories (StepABcastHidden, StepBBcastHidden,
//     StepSymbolicHidden, StepAllToAllHidden), the exposed remainder to the
//     paper's steps. Outputs are bit-identical in both schedules; only the
//     accounting differs.
//
// # Who computes when
//
// Every piece of local work — kernels, packing, extraction, concatenation —
// runs as a compute section (Proc.measure → mpi.Comm.MeasureCompute), and
// the world's compute gate deals the host's cores (GOMAXPROCS) out to the
// sections: each waits for one core, so up to GOMAXPROCS ranks compute side
// by side and a job's wall-clock follows its critical path, not the sum of
// its ranks. Options.Threads is the most workers a rank's multiply, merge
// and symbolic kernels (localmm's one-pass plan) may use, mirroring the
// paper's 16-threads-per-process configuration: once a kernel knows its
// work, and if that work pays for more than one worker, its section takes
// further cores — only idle ones, none while a rank is waiting — and the
// kernel runs one worker per core held (Proc.workers). Outputs, work units
// and every modeled number are independent of the grant; with GOMAXPROCS=1
// ranks take strict turns.
//
// # Sparse×dense: the 1.5D schedules
//
// MultiplyDense runs C = A·B for a dense panel B under a
// planner.DenseConfig, the one description of a sparse×dense run: the
// family, its layer count or replication factor, the batch count and the
// schedule all come from the config; the RunConfig supplies the world, the
// per-rank settings and — to the SUMMA arm — the sparse pipeline's other
// options, its memory budget among them. AlgoSUMMA densifies the panel's pattern
// and reuses the full sparse pipeline above, while AlgoColA and AlgoInnerABC
// execute the 1.5D schedules of Koanantakool et al. (IPDPS 2016) — the ranks
// form a ring of s = p/c positions × c = DenseConfig.C layers
// (grid.Grid15), the stationary operand is replicated across layers once,
// the moving operand shifts R = s/c rounds, and dense partials reduce over
// the fiber in layer order (deterministic, so outputs are bit-identical to
// localmm.SpMMSerial on integer-valued operands). A 1.5D rank (denseProc)
// runs on the same per-rank runtime as a SUMMA rank (Proc) — compute
// sections, worker count, overlap ledger and the ledger's broadcast wait —
// and reuses the mpi collectives and the paper's meter categories;
// pipelined, it posts the next ring shift behind the current round's
// multiply. Every rank of either arm reports its batch count, flops and
// peak (DenseResult). planner.NewDense spans the algorithm axis
// analytically, and the spgemm facade runs its best config as it stands.
package core
