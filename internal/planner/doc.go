// Package planner is the analytical autotuner: given the cheap statistics of
// a multiplication (dimensions, nonzero counts, a sampled symbolic probe of
// the output, per-block hypersparsity occupancy), a machine's α–β constants,
// a rank count p, and an aggregate memory budget M, it enumerates every
// feasible BATCHEDSUMMA3D configuration — all layer counts l with square
// layers, the batch count b the per-format footprint model induces under M
// (mirroring the distributed symbolic step's decision without running it),
// storage format ∈ {csc, dcsc, auto}, and pipeline on/off — with the hidden
// share predicted by the overlap-ledger model across each requested
// outstanding-channel count k (Input.Channels) — and predicts each
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
// any host.
//
// A daemon pays a cold plan on the request path for every new operand pair,
// so the probe and the grid statistics do the least work that gives the
// same numbers: a sampled column dedupes through a presence bitmap only
// when that costs at most one word per flop (never a buffer sized by a row
// count a header merely claims), row-block counts and block lookups are
// closure-free binary searches, and the slice model reuses its powers. Each such
// rewrite keeps the older code's expressions and their association, and
// reorders only sums of integer-valued floats, so every candidate is
// bit-identical to the older statistics reference_test.go keeps as an oracle
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
// pattern — exactly what the runtime's AlgoSUMMA arm executes.
package planner
