// Package planner is the analytical autotuner: given the cheap statistics of
// a multiplication (dimensions, nonzero counts, a sampled symbolic probe of
// the output, per-block hypersparsity occupancy), a machine's α–β constants,
// a rank count p, and an aggregate memory budget M, it enumerates every
// feasible BATCHEDSUMMA3D configuration — all layer counts l with square
// layers, the batch count b the per-format footprint model induces under M
// (mirroring the distributed symbolic step's decision without running it),
// storage format ∈ Formats, sparse A-broadcast mode ∈ SparseModes, and
// pipeline on/off — with the hidden share predicted by the overlap-ledger
// model for each outstanding-channel count k ∈ Channels — and predicts each
// configuration's modeled critical-path seconds per step (Symbolic,
// A-Broadcast, B-Broadcast, Local-Multiply, Merge-Layer, AllToAll-Fiber,
// Merge-Fiber). The result is a ranked Plan with a per-step cost breakdown
// and a human-readable "why" report.
//
// The predictors deliberately mirror the metered simulation rather than the
// paper's closed forms: communication uses the exact wire-size formula
// (spmat.WireBytesFor) over exactly-computed per-block occupancy, so the
// A-broadcast and symbolic predictions reproduce the meters to the byte;
// output-side quantities (unmerged intermediates, merge volumes, the fiber
// exchange) come from the sampled probe through a balls-in-bins
// slice-splitting model, so they are estimates. The modeled objective is the
// same one the CI perf gate scores: per-step max-over-ranks α–β communication
// plus total work units at a pinned seconds-per-work rate — deterministic on
// any host. The model's constants are not inputs: r = spmat.BytesPerNonzero
// bytes per stored nonzero (Sec. IV-A), DefaultSecPerWork, DefaultSampleCols
// probed columns and DefaultImbalance; the search space is the package's
// own (Formats, SparseModes, Channels, every layer count), and an Input
// carries only the caller's constraints — p, the budget, the machine and
// whether the symbolic pass runs — so CacheKey names only those.
//
// Two axes of the space look dominated inside the model, and
// TestDominatedAxes holds both on the planner fixtures with the symbolic pass
// run (two rank counts, four budgets, 1008 candidates): a sparse A-broadcast
// auto candidate is never slower or larger than its off twin and agrees on
// feasibility, and a pipelined candidate's second overlap channel never costs
// time or memory. Neither yet licenses pruning the dominated value:
//
//   - 288 of the sparse-mode pairs tie exactly. The rank tie-break puts off
//     first, so dropping off would change the pick's spelling (Choice) and
//     the runtime path it executes (mpi.IbcastColsStart's per-stage subset
//     decision) for no modeled second.
//   - Without the symbolic pass — the daemon's input when there is no
//     budget — auto learns each stage's column subset from one extra
//     Allgather along the process column, and on the same fixtures it models
//     slower than off in 72 candidates.
//
// The format axis has no such claim: auto applies the occupancy heuristic
// block by block, and csc or dcsc beats it in 312 of those 1008 candidates.
//
// A daemon pays a cold plan on the request path for every new operand pair,
// before admission, so a cold plan costs O(nnz) and is sized by nothing
// else a header can claim: no pass or buffer is sized by a dimension. The
// probe folds B's entries into every candidate grid's slice flops in one
// pass (no per-inner-index array), and each sampled column's distinct rows
// into every grid's output partition while they sit in scratch (the plan
// keeps no sampled rows); a sampled column dedupes through a presence bitmap
// only when that costs at most one word per flop. The sparse-comm statistics
// gather, per receiver block column, the inner indices B's entries touch,
// radix-sort and walk them, so they cost O(nnz(B)) per grid, not q²·n. A
// plan's allocation is O(nnz + sample + q³·l) — its candidates and their
// step breakdowns sized once — and its scratch comes from a sync.Pool, one
// per call, so concurrent plans share none. Block lookups guess from the
// bounds' mean spacing (partition.index) and row-block counts are binary
// searches, and the slice model reuses its powers. Each such rewrite keeps
// the older code's expressions and their association, and reorders only sums
// of integers or integer-valued floats, so every candidate is bit-identical
// to the older statistics reference_test.go keeps as an oracle
// (TestPlannerMatchesReference). Measuring the layer counts' grids on
// parallel goroutines saved under 3 % of a daemon expansion on two cores and
// was left out: New is serial.
//
// The planner is consumed three ways: core.AutoTuneOnMachine rewrites a
// RunConfig with the best candidate before a run (core.ApplyChoice with a
// cached one, as the daemon does), `spgemm-bench -autotune`
// prints the plan and then executes it, and `mtxinfo -plan` reports the
// ranked configurations for a Matrix Market file. The `planner` experiment
// (and `spgemm-bench -plangate`) scores the planner's pick against an
// exhaustive oracle sweep.
//
// NewDense extends the enumeration to sparse×dense multiplication: the
// algorithm axis (densified 2D/3D SUMMA vs the 1.5D ColA and InnerABC
// schedules) × replication factor × batches × schedule, with each
// candidate's cost split into one-time replication and per-iteration
// shares so iterated SpMM (DenseInput.Iterations) amortizes correctly. The
// 1.5D predictors mirror core's schedules collective for collective with
// exact per-block wire sizes and are meter-exact on staged shapes; the
// SUMMA arm delegates to the sparse planner on the panel's densified
// pattern — exactly what core.MultiplyDense executes for AlgoSUMMA, so the
// arm keeps only that plan's candidates with sparse communication off and
// one overlap channel (its best staged and best pipelined one). A
// candidate's DenseConfig is what core.MultiplyDense runs, as it stands.
package planner
