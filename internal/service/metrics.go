package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// Operational telemetry for the daemon, hand-rolled in the Prometheus text
// exposition format (no client library — stdlib only). /stats and /metrics
// render the same underlying counters: Stats() snapshots everything here, so
// the two endpoints can never drift apart.

// histogram is a fixed-bucket cumulative histogram in the Prometheus style:
// counts[i] counts observations ≤ bounds[i], with an implicit +Inf bucket at
// the end. It is not thread-safe; jobMetrics holds the lock.
type histogram struct {
	bounds []float64 // ascending upper bounds (le)
	counts []int64   // len(bounds)+1, last = +Inf overflow
	sum    float64
	n      int64
}

func newHistogram(bounds []float64) histogram {
	return histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// write emits the histogram in exposition format: cumulative _bucket lines,
// then _sum and _count.
func (h *histogram) write(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.n)
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", b)
}

// jobBuckets covers the wall-clock range multiply jobs span on a developer
// host: sub-millisecond cache-hit tiny jobs up to multi-second soaks.
var jobBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// gridKey is the grid a completed job ran on: its layer count and whether it
// ran the pipelined schedule. A fixed key, so counting a job on a grid seen
// before allocates nothing.
type gridKey struct {
	layers    int
	pipelined bool
}

// GridJobs counts the completed jobs that ran on one layer count under one
// schedule, "staged" or "pipelined".
type GridJobs struct {
	Layers   int    `json:"layers"`
	Schedule string `json:"schedule"`
	Jobs     int64  `json:"jobs"`
}

// jobMetrics aggregates per-job wall timings: end-to-end duration (plan +
// admission wait + run) and admission queue wait, as histograms plus the
// total/max the Stats snapshot reports, and the two totals that say how many
// cores the jobs used — wall seconds inside the engine and the compute
// seconds the ranks measured there — the wall time cold plans took, and the
// completed jobs by the grid they ran on.
type jobMetrics struct {
	mu             sync.Mutex
	duration       histogram
	queueWait      histogram
	queueWaitTotal float64
	queueWaitMax   float64
	engineTotal    float64
	rankCompute    float64
	failures       int64
	coldPlan       float64
	resultBytes    int64
	encodeSeconds  float64
	byGrid         map[gridKey]int64
}

func newJobMetrics() *jobMetrics {
	return &jobMetrics{
		duration:  newHistogram(jobBuckets),
		queueWait: newHistogram(jobBuckets),
		byGrid:    map[gridKey]int64{},
	}
}

// observeJob records one completed job's end-to-end duration, queue wait,
// engine wall time, summed rank compute seconds and grid.
func (jm *jobMetrics) observeJob(duration, wait, engine, rankCompute float64, grid gridKey) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.byGrid[grid]++
	jm.duration.observe(duration)
	jm.queueWait.observe(wait)
	jm.engineTotal += engine
	jm.rankCompute += rankCompute
	jm.queueWaitTotal += wait
	if wait > jm.queueWaitMax {
		jm.queueWaitMax = wait
	}
}

// observeFailure counts a job that errored after admission accounting began.
func (jm *jobMetrics) observeFailure() {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.failures++
}

// observeColdPlan records the wall time of one planning run (a plan-cache
// miss: probe and sweep).
func (jm *jobMetrics) observeColdPlan(seconds float64) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.coldPlan += seconds
}

// observeEncode records one returned product: the wire bytes streamed to the
// client and the wall time the handler spent laying them out and streaming
// them.
func (jm *jobMetrics) observeEncode(bytes int64, seconds float64) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.resultBytes += bytes
	jm.encodeSeconds += seconds
}

// snapshot returns the scalar aggregates Stats() reports.
func (jm *jobMetrics) snapshot() (waitTotal, waitMax, engine, rankCompute float64, failures int64) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.queueWaitTotal, jm.queueWaitMax, jm.engineTotal, jm.rankCompute, jm.failures
}

// jobsByGrid returns the completed jobs by grid, by layer count and then
// schedule.
func (jm *jobMetrics) jobsByGrid() []GridJobs {
	jm.mu.Lock()
	out := make([]GridJobs, 0, len(jm.byGrid))
	for g, n := range jm.byGrid {
		schedule := "staged"
		if g.pipelined {
			schedule = "pipelined"
		}
		out = append(out, GridJobs{Layers: g.layers, Schedule: schedule, Jobs: n})
	}
	jm.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Layers != out[j].Layers {
			return out[i].Layers < out[j].Layers
		}
		return out[i].Schedule < out[j].Schedule
	})
	return out
}

// handlerTotals returns the totals only /metrics renders: the summed wall
// time of cold plans, and the returned products' streamed bytes and the wall
// time spent streaming them.
func (jm *jobMetrics) handlerTotals() (coldPlan float64, resultBytes int64, encode float64) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.coldPlan, jm.resultBytes, jm.encodeSeconds
}

// endpointNames fixes the counter set (and its /metrics label order); the
// epLoad... indices address Service.requests.
var endpointNames = [...]string{"load", "plan", "multiply", "stats", "matrices", "metrics"}

const (
	epLoad = iota
	epPlan
	epMultiply
	epStats
	epMatrices
	epMetrics
)

// WriteMetrics renders the service's telemetry in the Prometheus text
// exposition format (version 0.0.4). Every scalar but the cold plans' total
// wall time and the returned products' two totals comes from the same
// Stats() snapshot /stats serves.
func (s *Service) WriteMetrics(w io.Writer) {
	st := s.Stats()
	coldPlan, resultBytes, encode := s.met.handlerTotals()

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}

	fmt.Fprintf(w, "# HELP spgemmd_requests_total HTTP requests served, by endpoint.\n# TYPE spgemmd_requests_total counter\n")
	for _, ep := range endpointNames {
		fmt.Fprintf(w, "spgemmd_requests_total{endpoint=%q} %d\n", ep, st.Requests[ep])
	}

	counter("spgemmd_jobs_total", "Completed multiply jobs.", float64(st.Multiplies))
	fmt.Fprintf(w, "# HELP spgemmd_jobs_by_grid_total Completed multiply jobs, by layer count and schedule.\n# TYPE spgemmd_jobs_by_grid_total counter\n")
	for _, g := range st.JobsByGrid {
		fmt.Fprintf(w, "spgemmd_jobs_by_grid_total{layers=\"%d\",schedule=%q} %d\n", g.Layers, g.Schedule, g.Jobs)
	}
	counter("spgemmd_jobs_failed_total", "Multiply jobs that errored.", float64(st.JobFailures))
	counter("spgemmd_jobs_queued_total", "Jobs that waited for admission.", float64(st.QueuedJobs))
	counter("spgemmd_queue_wait_seconds_total", "Total admission queue wait.", st.QueueWaitSeconds)
	gauge("spgemmd_queue_wait_max_seconds", "Longest single admission wait.", st.QueueWaitMaxSeconds)
	counter("spgemmd_engine_seconds_total", "Wall time completed jobs spent inside the distributed multiply.", st.EngineSeconds)
	counter("spgemmd_rank_compute_seconds_total", "Compute seconds measured by the ranks of completed jobs; its rate over spgemmd_engine_seconds_total's is the mean busy cores.", st.RankComputeSeconds)
	gauge("spgemmd_admission_queue_depth", "Jobs currently waiting for admission.", float64(st.QueueDepth))
	gauge("spgemmd_admission_queue_peak", "Deepest the admission queue has been.", float64(st.PeakQueued))
	gauge("spgemmd_admission_reserved_bytes", "Sum of admitted jobs' reservations.", float64(st.ReservedBytes))
	gauge("spgemmd_mem_budget_bytes", "Aggregate memory budget (0 = unconstrained).", float64(st.MemBytes))

	gauge("spgemmd_plan_cache_entries", "Cached planning decisions.", float64(st.Plans))
	counter("spgemmd_plan_cache_hits_total", "Plan-cache hits.", float64(st.PlanHits))
	counter("spgemmd_plan_cache_misses_total", "Plan-cache misses (ran the probe+sweep).", float64(st.PlanMisses))
	counter("spgemmd_probes_total", "Planner probe+sweep executions.", float64(st.Probes))
	counter("spgemmd_plan_seconds_total", "Wall time of planner probe+sweep executions (cold plans only; a cache hit adds nothing).", coldPlan)
	counter("spgemmd_result_bytes_total", "Product wire bytes streamed to clients (return_result jobs).", float64(resultBytes))
	counter("spgemmd_encode_seconds_total", "Wall time the /multiply handler spent encoding and streaming returned products.", encode)

	gauge("spgemmd_resident_matrices", "Matrices in the registry.", float64(st.Matrices))
	gauge("spgemmd_split_cache_bytes", "Modeled bytes of the resident matrices' cached dealt-out blocks.", float64(st.SplitCacheBytes))
	gauge("spgemmd_split_cache_entries", "Cached split sets (one matrix, role, layer count and format each).", float64(st.SplitCacheEntries))
	counter("spgemmd_split_cache_hits_total", "Job operands run on blocks the split cache held.", float64(st.SplitCacheHits))
	counter("spgemmd_split_cache_misses_total", "Job operands dealt out on the host.", float64(st.SplitCacheMisses))
	counter("spgemmd_split_cache_evictions_total", "Split sets dropped to keep the cache within its bound.", float64(st.SplitCacheEvictions))
	gauge("spgemmd_worlds_idle", "Built simulated clusters waiting for a job.", float64(st.IdleWorlds))
	counter("spgemmd_worlds_built_total", "Simulated clusters built because no idle one had the job's layer count.", float64(st.WorldsBuilt))
	counter("spgemmd_worlds_dropped_total", "Simulated clusters dropped because their job failed.", float64(st.WorldsDropped))
	fmt.Fprintf(w, "# HELP spgemmd_free_list_idle_bytes Bytes the process's free lists hold for reuse, by list.\n# TYPE spgemmd_free_list_idle_bytes gauge\n")
	fmt.Fprintf(w, "spgemmd_free_list_idle_bytes{list=\"loans\"} %d\n", st.FreeListIdleBytes.Loans)
	fmt.Fprintf(w, "spgemmd_free_list_idle_bytes{list=\"deals\"} %d\n", st.FreeListIdleBytes.Deals)
	counter("spgemmd_traces_captured_total", "Per-job span traces captured.", float64(st.TracesCaptured))
	gauge("spgemmd_ranks", "Simulated rank count per job.", float64(st.P))

	s.met.mu.Lock()
	fmt.Fprintf(w, "# HELP spgemmd_job_duration_seconds End-to-end multiply job wall time (plan + queue + run).\n")
	s.met.duration.write(w, "spgemmd_job_duration_seconds")
	fmt.Fprintf(w, "# HELP spgemmd_job_queue_wait_seconds Admission queue wait per job.\n")
	s.met.queueWait.write(w, "spgemmd_job_queue_wait_seconds")
	s.met.mu.Unlock()
}
