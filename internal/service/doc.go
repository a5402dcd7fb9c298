// Package service is the serving layer: a long-running multiply-as-a-service
// engine that holds distributed matrices resident across requests, caches
// planner decisions, and admits concurrent multiply jobs under a shared
// memory budget.
//
// Four pieces compose, in request order:
//
//   - Registry keeps loaded matrices resident by name, each with its
//     content fingerprint (spmat.Fingerprint). Loading the same content
//     under the same name is a no-op, so iterated clients (an MCL loop, a
//     BFS frontier sweep) re-"load" freely.
//
//   - PlanCache memoizes planner decisions keyed by
//     planner.CacheKey(fingerprintA, fingerprintB, input). The first
//     multiply of a pair pays the probe and the full candidate sweep;
//     every repeat skips straight to execution with the cached
//     planner.Choice. Single-flight semantics: concurrent requests for one
//     key plan once, the rest wait for the result.
//
//   - The split cache keeps each resident matrix dealt out over the grid
//     (core.Dealt) for every role, layer count and format a job has run it
//     on, so only the first such job deals it out and later ones run on the
//     same read-only blocks (core.MultiplyDealt). Its modeled bytes stay
//     within MemBytes — or maxResidentBytes without a budget — by evicting
//     the least recently used set.
//
//   - Scheduler admits jobs FIFO under the service's aggregate MemBytes
//     budget, reserving each job's predicted peak footprint (the planner's
//     per-rank high-water mark × ranks — the same symbolic batch-footprint
//     decision that sizes a run's batches). Jobs that don't fit queue
//     instead of OOMing; a job too large for the whole budget runs alone.
//
// Service ties them together and executes admitted jobs on the simulated
// cluster. The shape and nonzero count every response reports come from the
// operands and the ranks' per-batch counts. For a request that set
// return_result the product stays in the ranks' batch pieces; any other
// drops each batch once counted (the discarding run), so no rank holds more
// than one. Nothing assembles it: the /multiply handler streams the wire
// bytes straight from the pieces (core.ProductSegments)
// under an exact Content-Length, inside the job's admission reservation, and
// Client.Multiply decodes them as they arrive. The pieces are the kernels'
// chunks on loan: they go back (core.Result.Release) once the product's last
// byte has been written, still inside the reservation, and the next job's
// kernels refill them.
//
// Jobs run on kept simulated clusters: p and the cost model are fixed per
// daemon, so the service's own core.Worlds keeps idle built worlds per layer
// count — the same take/give path core's one-shot entry points share, with
// counts of its own. A job takes one, or builds one when none is idle, runs
// on its communicators and process grid as they are, and gives it back once
// its summary is taken; only its p rank goroutines are new, and they end with
// the job, so an idle world holds none. A world whose job failed is dropped,
// never reused. Concurrent jobs hold distinct worlds, each with its own
// meters and compute-measurement gate, so they never share mutable engine
// state, and outputs are bit-identical to one-shot runs. A layer count never
// has more worlds than jobs that ran on it at once, and the idle worlds hold
// at most 4096 ranks together, the oldest dropped first. /stats and /metrics
// count the idle worlds, the worlds built and those dropped.
//
// Handler exposes the whole thing over HTTP (/load, /plan, /multiply, /stats,
// /matrices, /metrics; see SERVICE.md for the wire contract), and Client is
// the matching Go client whose MultiplyFunc adapter lets the example apps
// (MCL, BFS, triangle counting) run their inner products against a server.
// Everything is JSON except the matrices: an upload is the spmat.Serialize
// bytes as the body of POST /load?name=…, a returned product those bytes after
// the one-line JSON document of its /multiply response. The client streams
// each operand's encoding into its name's hash and into its upload body,
// never holding it whole, and sends it once when it is both sides of a
// product; the daemon reads a body into a buffer it reuses and streams a
// product from a segment table it reuses (see "Who serializes what, once" in
// ARCHITECTURE.md). The only
// bound on what an uploaded body may make the daemon allocate is
// Config.MemBytes: a body, or the CSC form of the matrix it describes, beyond
// the budget is refused with 413 before it is allocated, and a service
// without a budget has declared memory unconstrained.
package service
