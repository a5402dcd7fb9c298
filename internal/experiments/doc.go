// Package experiments regenerates every table and figure of the paper's
// evaluation section on the simulated cluster, and hosts the deterministic
// gates CI enforces on top of them.
//
// Each experiment is registered under the paper's identifier (fig3 … fig15,
// table2 … table7) or an ablation name (pipeline, hypersparse, sparsecomm,
// spmm, planner, service) and produces a textual Report with the same
// rows/series the paper plots, plus an expected qualitative shape so
// EXPERIMENTS.md can record paper-vs-measured. Workloads are deterministic
// scaled-down analogues of Table V's matrices (see genmat); communication
// is charged by the α–β machine models (see costmodel), so every number an
// experiment prints is identical on every host.
//
// An experiment runs exactly the configurations it pins: every multiply goes
// through one helper (execute) over one pins value, and RunOpts adds only
// the workload scale, the machine model and the host's thread count.
// testdata/runs/<id>.golden records each run's pins and its deterministic
// meters; the package tests hold every run to them (`make golden`
// regenerates the files).
//
// Three gates live here because they share the experiments' workloads and
// metering:
//
//   - RunGate/CompareGate (make perfgate): replays pinned fig-6/8,
//     hypersparse, and sparse×dense shapes and fails on modeled
//     critical-path regressions vs the checked-in baseline.
//   - RunPlanGate (make plan): scores the analytical planner's pick against
//     an exhaustive oracle sweep on every gate shape, and routes each pick
//     through the service plan cache — the replan must hit with the
//     identical decision.
//   - the service experiment / DriveService (make soak): duty-cycles a
//     spgemmd server with concurrent clients over mixed resident matrices,
//     failing on non-bit-identical outputs, probe work after warmup, or
//     admission deadlock. DriveService is shared with `spgemm-bench
//     -server URL`, which runs the same cycle against a remote daemon.
package experiments
