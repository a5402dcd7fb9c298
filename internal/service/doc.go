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
// Client.Multiply decodes them as they arrive. Every job runs a fresh mpi.Run world with its own
// compute-measurement gate, so concurrent jobs never share mutable engine
// state and outputs are bit-identical to one-shot runs.
//
// Handler exposes the whole thing over HTTP (/load, /plan, /multiply, /stats,
// /matrices, /metrics; see SERVICE.md for the wire contract), and Client is
// the matching Go client whose MultiplyFunc adapter lets the example apps
// (MCL, BFS, triangle counting) run their inner products against a server.
// Everything is JSON except the matrices: an upload is the spmat.Serialize
// bytes as the body of POST /load?name=…, a returned product those bytes after
// the one-line JSON document of its /multiply response, and the client
// serializes each operand once and sends it once when it is both sides of a
// product (see "Who serializes what, once" in ARCHITECTURE.md). The only
// bound on what an uploaded body may make the daemon allocate is
// Config.MemBytes: a body, or the CSC form of the matrix it describes, beyond
// the budget is refused with 413 before it is allocated, and a service
// without a budget has declared memory unconstrained.
package service
