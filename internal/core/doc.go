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
// MultiplyDiscard or MultiplyRanks with a RunConfig. They are one run
// (launch): the host deals both operands out to all p ranks in one sweep
// each (distmat's Split — the only time the engine copies the operands),
// each simulated rank builds its grid coordinates (grid.New), is handed its
// pieces (SetupLocal), and calls BatchedSUMMA3D collectively. MultiplyRanks
// returns the ranks' results as they are, C still distributed; Multiply adds
// the assembly of the global product (AssembleResults: count, allocate once,
// place), MultiplyDiscard a hook that empties every batch once the caller's
// hook has seen it. Setup is the per-rank alternative to the host split — a
// rank that holds the global operands cuts its own pieces out — for callers
// already inside a rank (tests, tools); p ranks doing that walk A q times and
// B q·l times between them, so the host entry points do not. Inside,
// Symbolic3D picks the batch count b from the memory budget, and each batch
// runs one batch function (summa3DBatch): the per-layer stage products
// (stageProducts), one Merge-Layer, the fiber AllToAll, and the fiber merge.
// Symbolic3D and stageProducts share one stage loop (forEachStage).
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
// MultiplyDense runs C = A·B for a dense panel B under Options.Algo:
// AlgoSUMMA densifies the panel's pattern and reuses the full sparse
// pipeline above, while AlgoColA and AlgoInnerABC execute the 1.5D
// schedules of Koanantakool et al. (IPDPS 2016) — the ranks form a ring of
// s = p/c positions × c = Options.Replication layers (grid.Grid15), the
// stationary operand is replicated across layers once, the moving operand
// shifts R = s/c rounds, and dense partials reduce over the fiber in layer
// order (deterministic, so outputs are bit-identical to localmm.SpMMSerial
// on integer-valued operands). The schedules reuse the mpi collectives,
// the paper's meter categories, and — pipelined — the same overlap ledger,
// posting the next ring shift behind the current round's multiply.
// AutoTuneDenseOnMachine, called by the spgemm facade before MultiplyDense,
// spans the algorithm axis analytically through planner.NewDense.
package core
