// Package mpi is an in-process stand-in for the message-passing runtime the
// paper runs on. Every rank is a goroutine; communicators support the
// collectives the SUMMA algorithms need (Barrier, Bcast, Allgather,
// AllToAllv, Allreduce) plus MPI_Comm_split-style sub-communicators for
// process rows, columns, layers, and fibers.
//
// Data really moves between ranks (receivers observe the sender's payload),
// so the distributed algorithms are exercised end to end. Because the
// transport is shared memory, the wall-clock of a collective is meaningless
// for the paper's scale; instead every collective *meters* itself: it records
// the bytes on the wire and charges an α–β modeled time (latency/bandwidth
// constants supplied by the caller) to each participating rank. The paper's
// own communication analysis (Table II) is in the same α–β model.
//
// # Metering
//
// Each rank owns a Meter that accumulates, per caller-chosen category (the
// paper's step names), modeled communication seconds, exact payload bytes
// and message counts, and measured compute seconds. Comm.MeasureCompute
// times one compute section under the world's compute gate, which holds one
// token per host core (GOMAXPROCS when the Run starts): a section waits for
// one core, and a kernel in it about to start worker goroutines is told by
// Comm.Workers how many the section can hold — it takes idle cores, never
// waits for one: ranks first, a rank's extra workers second, never more
// goroutines runnable than cores. No computing goroutine is
// time-shared, so its wall time is its own even with hundreds of rank
// goroutines, and as many ranks compute at once as the host has cores.
// Summarize aggregates per-rank meters into the critical-path numbers the
// paper plots (per-step maxima over ranks, work-smoothed compute) and the
// plain sum of compute seconds (Summary.RankComputeSeconds: over the run's
// wall time, the cores the job kept busy).
//
// # Non-blocking collectives
//
// IbcastStart/BcastRequest.Wait split a broadcast into a post and a
// completion, and IalltoallvStart/AllToAllvRequest.Wait do the same for the
// personalized exchange — the building blocks of the fully-overlapped SUMMA
// schedule. The payload exchange happens eagerly at post time, but the
// modeled cost is charged at wait time — to the category current at the
// wait, with WaitOverlap optionally diverting the share that hid behind
// intervening compute into a separate "hidden" category. A post immediately
// followed by Wait meters identically to the blocking collective.
//
// IbcastColsStart is the sparse form of the broadcast: receivers declare the
// wire size of the column subset they will actually read, and the collective
// switches — consistently across the communicator — between point-to-point
// subset sends and the full tree broadcast, whichever models cheaper.
//
// A request that is posted but never completed silently drops its modeled
// cost from the meters; Run audits a per-rank pending counter (shared across
// Split-derived communicators) after the ranks stop and panics on a
// forgotten Wait.
//
// # Buffer pool ownership
//
// Each Comm handle carries a per-rank free pool (request structs and
// AllToAllv receive slices) so steady-state send loops allocate nothing. The
// rules: pooled objects are owned by exactly one rank's goroutine and never
// shared; a request pointer dies the moment its Wait/WaitOverlap returns (the
// struct is recycled — do not retain it); a receive slice belongs to the
// caller until it is returned with PutRecv, and returning it is optional —
// dropping it merely costs an allocation on the next call. Payload contents
// are never pooled: they remain shared read-only objects owned by the sender.
//
// All collectives (posts included) are bulk-synchronous and must be called
// by every rank of a communicator in the same order.
package mpi
