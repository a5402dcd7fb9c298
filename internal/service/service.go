package service

import (
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// Config sizes the service's simulated cluster and its shared budget. Every
// multiply job runs on the same cluster shape, so plans cached for one
// request apply to every repeat.
type Config struct {
	// P is the rank count each job runs on. Required.
	P int
	// Machine is the cost model jobs are charged under (zero value: Cori-KNL).
	Machine costmodel.Machine
	// MemBytes is the aggregate memory budget. It plays both of its engine
	// roles: each job's symbolic step batches its own execution under it, and
	// the admission scheduler holds the sum of concurrent jobs' predicted
	// peak footprints within it. 0 = unconstrained (single-batch jobs,
	// unlimited admission).
	MemBytes int64
	// Threads is the intra-rank worker count for local kernels (0 = 1).
	Threads int
	// Logger receives the structured job logs (one line per completed or
	// failed job, carrying job ID, operand fingerprints, plan-cache outcome
	// and plan time, queue wait, and duration). nil discards them — the
	// embedder's choice, not a crash; spgemmd passes its process logger.
	Logger *slog.Logger
	// TraceDir, when non-empty, captures a per-rank span trace of every
	// multiply job and writes it to TraceDir/job-<id>.json in Chrome
	// trace-event format. The directory must exist.
	TraceDir string
}

// Service is the multiply-as-a-service engine: resident matrices and their
// dealt-out blocks, cached plans, budgeted admission, and the simulated
// cluster underneath.
type Service struct {
	cfg    Config
	reg    *Registry
	plans  *PlanCache
	splits *splitCache
	sched  *Scheduler
	worlds core.Worlds

	// rankHooks, when non-nil, hands every job's ranks their batch hooks. The
	// daemon leaves it nil; it lets a test fail a job from inside its ranks.
	rankHooks core.HookFactory

	probes     atomic.Int64 // planner probe+sweep executions (cache misses)
	multiplies atomic.Int64 // completed multiply jobs
	queuedJobs atomic.Int64 // jobs that waited for admission

	jobSeq atomic.Int64 // job-ID source: jobs number from 1 in arrival order
	traces atomic.Int64 // per-job traces captured (TraceDir and/or request)
	met    *jobMetrics  // job latency / queue-wait telemetry (/metrics)
	// requests counts served HTTP requests per endpoint, indexed like
	// endpointNames; Handler increments, Stats and /metrics read.
	requests [len(endpointNames)]atomic.Int64

	log *slog.Logger
}

// New returns a service for the given cluster shape.
func New(cfg Config) (*Service, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("service: rank count %d", cfg.P)
	}
	if cfg.Machine.Name == "" {
		cfg.Machine = costmodel.CoriKNL()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	// The dealt-out blocks are held to the budget, or without one to the cap
	// on one resident matrix.
	splitLimit := cfg.MemBytes
	if splitLimit <= 0 {
		splitLimit = maxResidentBytes
	}
	return &Service{
		cfg:    cfg,
		reg:    NewRegistry(),
		plans:  NewPlanCache(),
		splits: &splitCache{limit: splitLimit},
		sched:  NewScheduler(cfg.MemBytes),
		met:    newJobMetrics(),
		log:    logger,
	}, nil
}

// Load makes m resident under name (idempotent for identical content).
func (s *Service) Load(name string, m *spmat.CSC) (fp spmat.Fingerprint, alreadyLoaded bool, err error) {
	return s.reg.Load(name, m)
}

// runConfig is the per-job baseline before the planner's choice is applied.
func (s *Service) runConfig() core.RunConfig {
	return core.RunConfig{
		P:    s.cfg.P,
		L:    1,
		Cost: s.cfg.Machine.Cost(),
		Opts: core.Options{
			MemBytes: s.cfg.MemBytes,
			Threads:  s.cfg.Threads,
		},
	}
}

// PlanResult is a planning decision plus its cache provenance.
type PlanResult struct {
	// A and B are the operand names; Key the plan-cache key.
	A, B string `json:"-"`
	Key  string `json:"key"`
	// Choice is the planner's pick.
	Choice planner.Choice `json:"choice"`
	// CacheHit reports whether the decision came from the cache (no probe
	// work was performed by this request).
	CacheHit bool `json:"cache_hit"`
}

// Plan returns the planner decision for multiplying the named resident
// matrices, consulting the cache first. The first call for a pair pays
// planner.New's probe and sweep; repeats are pure lookups.
func (s *Service) Plan(aName, bName string) (PlanResult, error) {
	ra, err := s.reg.get(aName)
	if err != nil {
		return PlanResult{}, err
	}
	rb, err := s.reg.get(bName)
	if err != nil {
		return PlanResult{}, err
	}
	ar, ac := ra.mat.Dims()
	br, bc := rb.mat.Dims()
	if ac != br {
		return PlanResult{}, fmt.Errorf("service: dimension mismatch: %q is %dx%d, %q is %dx%d", aName, ar, ac, bName, br, bc)
	}
	in := core.PlanInput(s.runConfig(), s.cfg.Machine)
	key := planner.CacheKey(ra.fp.Key(), rb.fp.Key(), in)
	choice, hit, err := s.plans.PlanThrough(key, func() (planner.Choice, error) {
		s.probes.Add(1)
		start := time.Now()
		defer func() { s.met.observeColdPlan(time.Since(start).Seconds()) }()
		pl, err := planner.New(ra.mat, rb.mat, in)
		if err != nil {
			return planner.Choice{}, err
		}
		best := pl.Best()
		if best == nil {
			return planner.Choice{}, fmt.Errorf("service: no feasible configuration for %q x %q under the %d-byte budget", aName, bName, s.cfg.MemBytes)
		}
		return best.Choice(), nil
	})
	if err != nil {
		return PlanResult{}, err
	}
	return PlanResult{A: aName, B: bName, Key: key, Choice: choice, CacheHit: hit}, nil
}

// MultiplyRequest names the operands and algebra of one job.
type MultiplyRequest struct {
	// A and B are resident matrix names.
	A string `json:"a"`
	B string `json:"b"`
	// Semiring is the algebra name ("" = plus-times; see semiring.ByName).
	Semiring string `json:"semiring,omitempty"`
	// ReturnResult asks for the output matrix: the job keeps the ranks'
	// pieces, and /multiply streams them after the response document. Without it every batch is dropped once counted.
	ReturnResult bool `json:"return_result,omitempty"`
	// Trace asks for this job's per-rank span trace in the result (the HTTP
	// layer also sets it for /multiply?trace=1).
	Trace bool `json:"trace,omitempty"`
}

// MultiplyResult is one completed job.
type MultiplyResult struct {
	// ranks are the ranks' results when ReturnResult was set, while deliver
	// runs: the product, still in the batch pieces Merge-Fiber made, on loan
	// from the kernels (core.Result.Release). The HTTP handler streams their
	// wire bytes without assembling them, and multiply releases them once it
	// has, before it returns.
	ranks []*core.Result
	// Rows, Cols, NNZ describe the output.
	Rows int32 `json:"rows"`
	Cols int32 `json:"cols"`
	NNZ  int64 `json:"nnz"`
	// Plan is the decision the job ran under, including cache provenance.
	Plan PlanResult `json:"plan"`
	// Batches is the executed batch count (the symbolic step's real decision
	// under a budget; the planner's B was only the prediction).
	Batches int
	// PeakMemBytesPerRank is the measured per-rank high-water mark.
	PeakMemBytesPerRank int64
	// ModelSeconds, CommSeconds, ComputeSeconds summarize the metered run
	// (machine-scaled: comm by CommScale, compute by ComputeScale).
	ModelSeconds   float64
	CommSeconds    float64
	ComputeSeconds float64
	// Queued reports whether the job waited for admission; QueueSeconds how
	// long (wall time of this process, not modeled time).
	Queued       bool
	QueueSeconds float64
	// EngineSeconds is the wall time of the distributed multiply itself (the
	// ranks, and the host split of an operand the service had not yet dealt
	// out for the job's grid and format; no planning, queueing or assembly);
	// BusyCores is the ranks' summed measured compute seconds over that time
	// — the mean number of ranks computing at once, which approaches the
	// host's core count when the compute gate keeps every core dealt out and
	// sits near 1 when something serial (a host split, one overloaded rank)
	// dominates.
	EngineSeconds float64
	BusyCores     float64
	// JobID identifies this job in the daemon's structured logs and trace
	// filenames (jobs number from 1 in arrival order).
	JobID int64
	// Trace is the job's per-rank span recorder — non-nil only when the
	// request asked for it or the service captures to a TraceDir.
	Trace *obs.Recorder `json:"-"`
}

// Multiply plans (through the cache), admits, and executes one job. The
// result reports the job; the product itself reaches only the /multiply
// handler, which streams it: a ReturnResult job run here hands its product
// back to the kernels before it returns, inside its reservation.
func (s *Service) Multiply(req MultiplyRequest) (*MultiplyResult, error) {
	return s.multiply(req, nil)
}

// multiply is Multiply. A non-nil deliver is handed the result of a job that
// succeeded while the job still holds its admission reservation, which is
// released once deliver returns: the /multiply handler streams a returned
// product from the ranks' pieces in it, so the memory those pieces take stays
// charged until the last byte has been written. deliver is the pieces' last
// reader: once it returns — or at once, with no deliver — their chunks go
// back to the kernels (releaseProduct), still inside the reservation.
func (s *Service) multiply(req MultiplyRequest, deliver func(*MultiplyResult)) (*MultiplyResult, error) {
	jobID := s.jobSeq.Add(1)
	jobStart := time.Now()
	sr, err := semiring.ByName(req.Semiring)
	if err != nil {
		return nil, s.jobFailed(jobID, req, err)
	}
	planStart := time.Now()
	plan, err := s.Plan(req.A, req.B)
	planSec := time.Since(planStart).Seconds()
	if err != nil {
		return nil, s.jobFailed(jobID, req, err)
	}
	ra, err := s.reg.get(req.A)
	if err != nil {
		return nil, s.jobFailed(jobID, req, err)
	}
	rb, err := s.reg.get(req.B)
	if err != nil {
		return nil, s.jobFailed(jobID, req, err)
	}

	rc := s.runConfig()
	rc.Opts.Semiring = sr
	rc, err = core.ApplyChoice(rc, plan.Choice)
	if err != nil {
		return nil, s.jobFailed(jobID, req, err)
	}
	if req.Trace || s.cfg.TraceDir != "" {
		rc.Trace = obs.NewRecorder(rc.P)
	}

	// The reservation is the planner's symbolic footprint decision: the
	// predicted per-rank peak times the rank count. The engine's own batching
	// keeps the real footprint near this prediction, so admitted jobs'
	// reservations sum to (about) the real aggregate high-water mark.
	reserve := plan.Choice.PeakMemBytesPerRank * int64(s.cfg.P)
	t0 := time.Now()
	release, queued := s.sched.Acquire(reserve)
	wait := time.Since(t0).Seconds()
	defer release()
	if queued {
		s.queuedJobs.Add(1)
	}

	// The ranks' results carry everything the response reports. The product
	// stays in their pieces only for a request that asked to get it back; any
	// other job runs the discarding path, which counts each batch and drops
	// it, so no rank holds more than one batch of the product.
	engineStart := time.Now()
	results, summary, err := s.run(ra, rb, rc, !req.ReturnResult)
	engineSec := time.Since(engineStart).Seconds()
	if err != nil {
		return nil, s.jobFailed(jobID, req, err)
	}
	s.multiplies.Add(1)
	busyCores := 0.0
	if engineSec > 0 { // a clock too coarse for a tiny job must not put +Inf in the JSON
		busyCores = summary.RankComputeSeconds / engineSec
	}

	res := &MultiplyResult{
		Rows:          ra.mat.Rows,
		Cols:          rb.mat.Cols,
		Plan:          plan,
		Batches:       results[0].Batches,
		Queued:        queued,
		QueueSeconds:  wait,
		EngineSeconds: engineSec,
		BusyCores:     busyCores,
		JobID:         jobID,
		Trace:         rc.Trace,
	}
	for _, r := range results {
		if r.PeakMemBytes > res.PeakMemBytesPerRank {
			res.PeakMemBytesPerRank = r.PeakMemBytes
		}
		for _, n := range r.BatchNNZ {
			res.NNZ += n
		}
	}
	if req.ReturnResult {
		res.ranks = results
	}
	m := s.cfg.Machine
	for _, st := range summary.Steps {
		res.CommSeconds += st.CommSeconds * m.CommScale
		res.ComputeSeconds += st.ComputeSeconds * m.ComputeScale
	}
	res.ModelSeconds = res.CommSeconds + res.ComputeSeconds

	duration := time.Since(jobStart).Seconds()
	s.met.observeJob(duration, wait, engineSec, summary.RankComputeSeconds, gridKey{rc.L, rc.Opts.Pipeline})
	tracePath := ""
	if rc.Trace != nil {
		s.traces.Add(1)
		if s.cfg.TraceDir != "" {
			tracePath = filepath.Join(s.cfg.TraceDir, fmt.Sprintf("job-%d.json", jobID))
			if werr := rc.Trace.WriteTraceFile(tracePath); werr != nil {
				// The multiply succeeded; a failed trace write is log-worthy,
				// not job-fatal.
				s.log.Error("trace write failed", "job_id", jobID, "path", tracePath, "error", werr)
				tracePath = ""
			}
		}
	}
	attrs := []any{
		"job_id", jobID,
		"a", req.A, "b", req.B,
		"fp_a", ra.fp.Key(), "fp_b", rb.fp.Key(),
		"cache_hit", plan.CacheHit, "plan_s", planSec,
		"queued", queued, "queue_s", wait,
		"duration_s", duration,
		"engine_s", engineSec, "busy_cores", res.BusyCores,
		"batches", res.Batches,
		"nnz", res.NNZ,
		"model_s", res.ModelSeconds,
	}
	if tracePath != "" {
		attrs = append(attrs, "trace", tracePath)
	}
	s.log.Info("job done", attrs...)
	if deliver != nil {
		deliver(res)
	}
	res.releaseProduct()
	return res, nil
}

// releaseProduct hands back the chunks the ranks' pieces were lent; the
// product cannot be read afterwards.
func (r *MultiplyResult) releaseProduct() {
	for _, rk := range r.ranks {
		rk.Release()
	}
	r.ranks = nil
}

// run executes one job on its operands as the split cache holds them dealt
// out for rc's grid and format — only the first job with a key deals one out
// — on a kept world of the service's own core.Worlds: only a job that finds
// none idle for its layer count builds one, and a failed job's is dropped.
func (s *Service) run(ra, rb *resident, rc core.RunConfig, discard bool) ([]*core.Result, *mpi.Summary, error) {
	da, err := s.splits.deal(ra, core.RoleA, rc)
	if err != nil {
		return nil, nil, err
	}
	db, err := s.splits.deal(rb, core.RoleB, rc)
	if err != nil {
		return nil, nil, err
	}
	return s.worlds.MultiplyDealt(da, db, rc, s.rankHooks, discard)
}

// jobFailed records and logs a failed job, passing the error through.
func (s *Service) jobFailed(jobID int64, req MultiplyRequest, err error) error {
	s.met.observeFailure()
	s.log.Error("job failed", "job_id", jobID, "a", req.A, "b", req.B, "error", err)
	return err
}

// Stats is a snapshot of the service's counters.
type Stats struct {
	// Matrices is the resident-matrix count.
	Matrices int `json:"matrices"`
	// Plans is the number of cached decisions; PlanHits/PlanMisses count
	// cache outcomes (misses ran the probe+sweep).
	Plans      int   `json:"plans"`
	PlanHits   int64 `json:"plan_hits"`
	PlanMisses int64 `json:"plan_misses"`
	// Probes counts planner probe+sweep executions — flat Probes across a
	// window of requests means every plan came from the cache.
	Probes int64 `json:"probes"`
	// Multiplies counts completed jobs; QueuedJobs those that waited for
	// admission; PeakQueued the deepest the admission queue has been.
	// JobsByGrid splits Multiplies by the layer count and schedule the jobs
	// ran on.
	Multiplies int64      `json:"multiplies"`
	JobsByGrid []GridJobs `json:"jobs_by_grid"`
	QueuedJobs int64      `json:"queued_jobs"`
	PeakQueued int        `json:"peak_queued"`
	// JobFailures counts multiply jobs that errored.
	JobFailures int64 `json:"job_failures"`
	// QueueWaitSeconds totals every job's admission wait; QueueWaitMaxSeconds
	// is the longest single wait; QueueDepth the jobs waiting right now;
	// ReservedBytes the sum of admitted jobs' reservations.
	QueueWaitSeconds    float64 `json:"queue_wait_seconds"`
	QueueWaitMaxSeconds float64 `json:"queue_wait_max_seconds"`
	QueueDepth          int     `json:"queue_depth"`
	ReservedBytes       int64   `json:"reserved_bytes"`
	// EngineSeconds totals the wall time completed jobs spent inside the
	// distributed multiply; RankComputeSeconds the compute seconds their
	// ranks measured in it. Their ratio over any window is the mean number of
	// cores the jobs of that window kept busy.
	EngineSeconds      float64 `json:"engine_seconds"`
	RankComputeSeconds float64 `json:"rank_compute_seconds"`
	// Requests counts served HTTP requests per endpoint — the same counters
	// /metrics renders, so the two views cannot drift.
	Requests map[string]int64 `json:"requests"`
	// TracesCaptured counts per-job span traces captured.
	TracesCaptured int64 `json:"traces_captured"`
	// SplitCacheBytes is the modeled size of the resident matrices' cached
	// dealt-out blocks, SplitCacheEntries the number of cached sets (one
	// matrix, role, layer count and format each). SplitCacheHits counts
	// operands a job ran on as cached, SplitCacheMisses those it dealt out,
	// SplitCacheEvictions the sets dropped to make room.
	SplitCacheBytes     int64 `json:"split_cache_bytes"`
	SplitCacheEntries   int   `json:"split_cache_entries"`
	SplitCacheHits      int64 `json:"split_cache_hits"`
	SplitCacheMisses    int64 `json:"split_cache_misses"`
	SplitCacheEvictions int64 `json:"split_cache_evictions"`
	// IdleWorlds is the number of built simulated clusters waiting for a job
	// (one rank count, one layer count each), WorldsBuilt how many jobs built
	// one because none was idle for their layer count, WorldsDropped how
	// many were dropped because their job failed or, oldest first, to keep
	// the idle worlds within 4096 ranks.
	IdleWorlds    int   `json:"idle_worlds"`
	WorldsBuilt   int64 `json:"worlds_built"`
	WorldsDropped int64 `json:"worlds_dropped"`
	// FreeListIdleBytes is what the process's one free list of arrays
	// holds right now, waiting to be reused (spmat.IdleBytes).
	FreeListIdleBytes int64 `json:"free_list_idle_bytes"`
	// FreeListDrawnBytes is what lent matrices and busy kernel workers hold
	// of the list right now, FreeListDrawnPeakBytes the most they have held
	// at once since the process started (spmat.Drawn).
	FreeListDrawnBytes     int64 `json:"free_list_drawn_bytes"`
	FreeListDrawnPeakBytes int64 `json:"free_list_drawn_peak_bytes"`
	// MemBytes echoes the shared budget; P and Machine the cluster shape.
	MemBytes int64  `json:"mem_bytes"`
	P        int    `json:"p"`
	Machine  string `json:"machine"`
}

// Stats returns a consistent-enough snapshot for monitoring (counters are
// read individually, not under one lock).
func (s *Service) Stats() Stats {
	waitTotal, waitMax, engine, rankCompute, failures := s.met.snapshot()
	splitBytes, splitEntries, splitHits, splitMisses, splitEvictions := s.splits.snapshot()
	idleWorlds, worldsBuilt, worldsDropped := s.worlds.Counts()
	drawn, drawnPeak := spmat.Drawn(false)
	reqs := make(map[string]int64, len(endpointNames))
	for i, name := range endpointNames {
		reqs[name] = s.requests[i].Load()
	}
	return Stats{
		Matrices:   s.reg.Len(),
		Plans:      s.plans.Len(),
		PlanHits:   s.plans.Hits(),
		PlanMisses: s.plans.Misses(),
		Probes:     s.probes.Load(),
		Multiplies: s.multiplies.Load(),
		JobsByGrid: s.met.jobsByGrid(),
		QueuedJobs: s.queuedJobs.Load(),
		PeakQueued: s.sched.PeakQueued(),

		JobFailures:         failures,
		QueueWaitSeconds:    waitTotal,
		QueueWaitMaxSeconds: waitMax,
		QueueDepth:          s.sched.Queued(),
		ReservedBytes:       s.sched.UsedBytes(),
		EngineSeconds:       engine,
		RankComputeSeconds:  rankCompute,
		Requests:            reqs,
		TracesCaptured:      s.traces.Load(),

		SplitCacheBytes:     splitBytes,
		SplitCacheEntries:   splitEntries,
		SplitCacheHits:      splitHits,
		SplitCacheMisses:    splitMisses,
		SplitCacheEvictions: splitEvictions,

		IdleWorlds:    idleWorlds,
		WorldsBuilt:   worldsBuilt,
		WorldsDropped: worldsDropped,

		FreeListIdleBytes:      spmat.IdleBytes(),
		FreeListDrawnBytes:     drawn,
		FreeListDrawnPeakBytes: drawnPeak,

		MemBytes: s.cfg.MemBytes,
		P:        s.cfg.P,
		Machine:  s.cfg.Machine.Name,
	}
}
