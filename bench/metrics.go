package main

import (
	"math"
	"sort"
)

// metricDef is one reported number. Bound (end-to-end metrics only) is the
// share of the parent's median by which the metric may worsen before a change
// counts as a regression; BENCHMARK.json repeats this table and bench_test.go
// holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is measured with all tracing off. The three times (setup_s,
// op_norm_s_p50, mflops_per_norm_s) are wall-clock in host-normalised seconds
// (see calibrate). The bounds answer to spreads measured over ten seeds on the
// 2-core host this was written on: the wall-clock ones are as wide as the
// contract allows; the modeled ones repeat exactly for one seed and move only
// as far as the seed moves the inputs and the plans.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_norm_s_p50", "s", lower, 0.25},
	{"mflops_per_norm_s", "Mflop/s", higher, 0.25},
	{"alloc_mb_per_op", "MB", lower, 0.10},
	{"model_s_per_op", "s", lower, 0.10},
	{"peak_mem_mb_per_rank", "MB", lower, 0.25},
}

func stepMetrics() []metricDef {
	var out []metricDef
	for _, s := range stepNames {
		out = append(out,
			metricDef{Name: "core.step." + s + ".work_units", Unit: "count", Better: lower},
			metricDef{Name: "core.step." + s + ".bytes", Unit: "B", Better: lower})
	}
	return out
}

// perLayer comes from the traced run (-trace 1). README.md says what each one
// is and which end-to-end metric it should move on which workload. A metric
// whose layer a workload does not reach reads 0 there.
var perLayer = append([]metricDef{
	{Name: "spmat.serialize_s", Unit: "s", Better: lower},
	{Name: "spmat.serialize_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "spmat.deserialize_s", Unit: "s", Better: lower},
	{Name: "spmat.deserialize_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "spmat.fingerprint_s", Unit: "s", Better: lower},
	{Name: "spmat.fingerprint_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "spmat.wire_bytes", Unit: "B", Better: lower},
	{Name: "spmat.dcsc_block_share", Unit: "ratio", Better: higher},

	{Name: "localmm.multiply_s", Unit: "s", Better: lower},
	{Name: "localmm.multiply_mflops_per_s", Unit: "Mflop/s", Better: higher},
	{Name: "localmm.merge_layer_s", Unit: "s", Better: lower},
	{Name: "localmm.merge_fiber_s", Unit: "s", Better: lower},
	{Name: "localmm.merge_mnnz_per_s", Unit: "Mnnz/s", Better: higher},
	{Name: "localmm.symbolic_s", Unit: "s", Better: lower},
	{Name: "localmm.whole_multiply_s", Unit: "s", Better: lower},
	{Name: "localmm.blocked_vs_whole", Unit: "ratio", Better: lower},
	{Name: "localmm.thread_speedup", Unit: "ratio", Better: higher},
	{Name: "localmm.flops", Unit: "count", Better: lower},
	{Name: "localmm.unmerged_nnz", Unit: "count", Better: lower},
	{Name: "localmm.output_nnz", Unit: "count", Better: lower},
	{Name: "localmm.compression_factor", Unit: "ratio", Better: higher},

	{Name: "mpi.run_spawn_us", Unit: "us", Better: lower},
	{Name: "mpi.bcast_us", Unit: "us", Better: lower},
	{Name: "mpi.alltoallv_us", Unit: "us", Better: lower},
	{Name: "mpi.allreduce_us", Unit: "us", Better: lower},
	{Name: "mpi.split_us", Unit: "us", Better: lower},
	{Name: "mpi.collectives_per_op", Unit: "count", Better: lower},
	{Name: "mpi.comm_bytes_per_op", Unit: "B", Better: lower},
	{Name: "mpi.runtime_s_per_op", Unit: "s", Better: lower},

	{Name: "core.multiply_s", Unit: "s", Better: lower},
	{Name: "core.discard_s", Unit: "s", Better: lower},
	{Name: "core.assemble_s", Unit: "s", Better: lower},
	{Name: "core.symbolic_s", Unit: "s", Better: lower},
	{Name: "core.self_s", Unit: "s", Better: lower},
	{Name: "core.slowdown_vs_serial", Unit: "ratio", Better: lower},
	{Name: "core.batches", Unit: "count", Better: lower},
	{Name: "core.work_units", Unit: "count", Better: lower},
	{Name: "core.model_comm_s", Unit: "s", Better: lower},
	{Name: "core.budget_utilisation", Unit: "ratio", Better: lower},
	{Name: "core.rank_imbalance", Unit: "ratio", Better: lower},

	{Name: "planner.probe_s", Unit: "s", Better: lower},
	{Name: "planner.plan_s", Unit: "s", Better: lower},
	{Name: "planner.candidates", Unit: "count", Better: lower},
	{Name: "planner.model_residual", Unit: "ratio", Better: lower},
	{Name: "planner.peak_residual", Unit: "ratio", Better: lower},
	{Name: "costmodel.multiply_residual", Unit: "ratio", Better: lower},
	{Name: "costmodel.merge_residual", Unit: "ratio", Better: lower},

	{Name: "service.load_s_p50", Unit: "s", Better: lower},
	{Name: "service.plan_cold_s_p50", Unit: "s", Better: lower},
	{Name: "service.plan_warm_s_p50", Unit: "s", Better: lower},
	{Name: "service.multiply_cold_s_p50", Unit: "s", Better: lower},
	{Name: "service.multiply_warm_s_p50", Unit: "s", Better: lower},
	{Name: "service.request_wall_s_p90", Unit: "s", Better: lower},
	{Name: "service.iter_wall_s_p50", Unit: "s", Better: lower},
	{Name: "service.http_overhead_s", Unit: "s", Better: lower},
	{Name: "service.engine_share", Unit: "ratio", Better: higher},
	{Name: "service.upload_mb_per_op", Unit: "MB", Better: lower},
	{Name: "service.download_mb_per_op", Unit: "MB", Better: lower},
	{Name: "service.load_requests", Unit: "count", Better: lower},
	{Name: "service.plan_hits", Unit: "count", Better: higher},
	{Name: "service.plan_misses", Unit: "count", Better: lower},
	{Name: "service.probes", Unit: "count", Better: lower},
	{Name: "service.queued_jobs", Unit: "count", Better: lower},
	{Name: "service.queue_wait_s", Unit: "s", Better: lower},
	{Name: "service.job_failures", Unit: "count", Better: lower},

	{Name: "obs.trace_on_ratio", Unit: "ratio", Better: lower},
	{Name: "obs.spans_per_op", Unit: "count", Better: lower},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "apps.mcl_client_s", Unit: "s", Better: lower},
	{Name: "apps.mcl_iterations", Unit: "count", Better: lower},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "process.gc_count_per_op", Unit: "count", Better: lower},
	{Name: "process.gc_pause_ms_per_op", Unit: "ms", Better: lower},
	{Name: "env.calib_s", Unit: "s", Better: lower},
}, stepMetrics()...)

// metricValue is how a metric is written in results and on the last line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect reads every metric of defs out of vals; one that was never set, or
// is not a finite number, reads 0.
func collect(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// ratio is n/d, and 0 when d is 0.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// quantile is the q-th quantile of vals by the exclusive method, the one
// Python's statistics.quantiles uses, so quartiles printed here match the
// ones the acceptance rule is stated in.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// summary is the spread printed beside every median.
type summary struct {
	N                     int
	Min, Q1, P50, Q3, Max float64
}

func summarize(vals []float64) summary {
	return summary{
		N: len(vals), Min: quantile(vals, 0), Q1: quantile(vals, 0.25),
		P50: median(vals), Q3: quantile(vals, 0.75), Max: quantile(vals, 1),
	}
}
