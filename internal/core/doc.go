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
// as the daemon does for resident matrices). That run is one launch: it
// checks the dealt operands fit the run, each simulated rank builds its grid
// coordinates (grid.New), is handed its blocks in place (SetupLocal), and
// calls BatchedSUMMA3D collectively. A rank's
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
// as it goes (layerMerge). The pipelined schedule does that for the last
// stage on a grid with q > 1 and makes the earlier stages' products, whose
// multiplies hide the next stage's broadcasts.
//
// # Lent outputs
//
// Every kernel output whose last reader is known is lent, not copied
// (localmm.Plan.MulLent, localmm.MergeLent, localmm.MulMerge): its entry
// arrays are a kernel worker's chunk until the rank hands it back
// (localmm.Loan.Return). Each loan is returned by exactly one owner, and that
// owner is whoever knows the output's last reader. Under the staged schedule
// no stage product exists to lend: Merge-Layer computes every stage's
// product inside its merge from the stages' plans (localmm.MulMerge), which
// it holds until its merge and then releases. There are five cases:
//
//   - A pipelined stage product, on a grid with q > 1 — the q − 1 earlier
//     ones; the last stage's is never made, Merge-Layer computes it inside
//     its merges from the stage's plan, which it holds until its last window
//     and then releases: Merge-Layer accumulates the products into arrays of
//     its own, and the batch function returns them right after.
//   - Merge-Layer's output, on a grid with l > 1 (in the pipelined schedule,
//     each per-destination merge's). This rank's Merge-Fiber reads it and,
//     through the by-reference fiber exchange, so do the l − 1 fiber peers'.
//     It is returned right after the next batch's exchange is posted, which
//     returns only once every peer has posted and so has finished this batch;
//     the last batch's are held in the Proc and returned by the launcher once
//     the world has ended, aborted or not.
//   - Under MultiplyDiscard, Merge-Layer's output on a grid with l = 1: with
//     no fiber peers, Merge-Fiber passes it through as the batch output, and
//     BatchedSUMMA3D returns it once the hook has returned.
//   - Under MultiplyDiscard, Merge-Fiber's output on a grid with l > 1: the
//     batch output, returned by BatchedSUMMA3D once the hook has returned.
//   - A pipelined stage product on a grid with q = 1, wherever Merge-Layer's
//     output is lent (l > 1, or under MultiplyDiscard): a one-operand merge
//     returns its operand, so the product is that output, and its loan goes
//     with that output's to the same owner.
//
// The hook of a discarding run is handed its piece on loan for the call.
// Everything a Result holds and every piece a hook outside MultiplyDiscard
// is handed is owned. Values, entry order, work units, peak checkpoints and
// spans do not depend on what is lent.
//
// # Schedules
//
// The stage loop and the batch function support two schedules, selected by
// Options.Pipeline, which differ in exactly two places: whether the next
// stage is posted before the current one runs, and the order of Merge-Layer
// against the exchange post.
//
//   - Staged (default): stage s's A- and B-broadcasts complete before its
//     local multiply starts, Merge-Layer merges once before the fiber
//     AllToAll is posted, and the exchange runs fully exposed — the paper's
//     schedule.
//   - Fully overlapped: stage s+1's broadcasts are posted (mpi.IbcastStart)
//     before stage s's multiply; the last stage of batch t posts batch t+1's
//     stage-0 broadcasts (the batch piece is extracted one batch ahead by
//     BatchedSUMMA3D) so the pipeline never drains at a batch boundary; and
//     Merge-Layer is partitioned by destination layer so the fiber exchange
//     (mpi.IalltoallvStart) completes while the own-layer share still runs.
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
