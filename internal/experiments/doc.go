// Package experiments regenerates every table and figure of the paper's
// evaluation section on the simulated cluster, and hosts the deterministic
// gates CI enforces on top of them.
//
// Each experiment is one declaration registered under the paper's
// identifier (fig3 … fig15, table2 … table7) or an ablation name (pipeline,
// hypersparse, sparsecomm, spmm, planner, service): its title, the shape the
// paper reports, and a run that fills a textual Report with the same
// rows/series the paper plots, followed by the measured shape. Most tables
// are sweeps: each row is a run point (operands, pins, axis labels), each
// column a header with its cell of the run's outcome, and one runner makes
// every multiply through execute. Workloads are deterministic scaled-down
// analogues of Table V's matrices (see genmat).
//
// Modeled and measured numbers sit side by side. Communication seconds are
// charged by the α–β machine models (see costmodel), and bytes, messages,
// work units, batch counts and model seconds are metered exactly; these are
// the same on every host. Compute seconds are measured wall-clock — the
// "comp"/"computation" columns, every total that adds them, table6's
// compute arrows and table7's kernel times — and so are fig3's MCL
// iterations, the pipeline ablation's exposed and hidden split, and the
// service soak's timings and queueing.
//
// An experiment runs exactly the configurations it pins, and RunOpts adds
// only the workload scale, the machine model and the host's thread count.
// testdata/runs/<id>.golden records each run's pins and its deterministic
// meters. testdata/reports/<id>.golden holds each rendered report: the test
// replaces every run's measured compute seconds by its work units at the
// gate's rate, so the text is host-independent, and compares fig3, pipeline
// and service with every number masked. The package tests hold both exactly
// (`make golden` regenerates them).
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
