package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/genmat"
)

// scrapeMetrics GETs /metrics and parses the Prometheus text exposition into
// name{labels} → value, validating the line grammar as it goes. It asks over
// the client's own keep-alive connection, so the daemon answers after it has
// finished the last response the client read — including what its handler
// records once the body is out.
func scrapeMetrics(t *testing.T, cl *Client) map[string]float64 {
	t.Helper()
	resp, err := cl.http().Get(cl.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	out := map[string]float64{}
	typed := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 4 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Fatalf("malformed comment line %q", line)
			}
			if f[1] == "TYPE" {
				typed[f[2]] = true
			}
			continue
		}
		// Sample line: name{labels} value — value is the last field.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		out[key] = v
		// Every sample must be preceded by a TYPE for its metric family.
		fam := key
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(fam, suf); ok && typed[base] {
				fam = base
				break
			}
		}
		if !typed[fam] {
			t.Fatalf("sample %q has no preceding # TYPE", key)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// jobLog collects the service's JSON log lines; the HTTP handler goroutines
// write it, the test reads it.
type jobLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *jobLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// done returns the decoded `job done` lines.
func (l *jobLog) done(t *testing.T) []map[string]any {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(l.buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec["msg"] == "job done" {
			out = append(out, rec)
		}
	}
	return out
}

// TestMetricsEndpointMatchesStats: /metrics must parse as Prometheus text
// and agree with the Stats snapshot — they render the same counters, so any
// drift is a bug.
func TestMetricsEndpointMatchesStats(t *testing.T) {
	a := genmat.RMAT(genmat.RMATConfig{Scale: 5, EdgeFactor: 8, Seed: 31, Weighted: true})
	cfg := testConfig(t, a)
	var logs jobLog
	cfg.Logger = slog.New(slog.NewJSONHandler(&logs, nil))
	cl, s := startServer(t, cfg)
	if _, err := cl.Load("a", a); err != nil {
		t.Fatal(err)
	}
	var engine float64
	var jobs []MultiplyResponse
	for i := 0; i < 3; i++ {
		res, _, err := cl.Multiply(MultiplyRequest{A: "a", B: "a"})
		if err != nil {
			t.Fatal(err)
		}
		// Every job reports its own engine time and the cores it kept busy:
		// at least some compute happened, and no more ranks computed at once
		// than the gate has cores.
		if res.EngineSeconds <= 0 || res.BusyCores <= 0 || res.BusyCores > float64(runtime.GOMAXPROCS(0)) {
			t.Errorf("job %d: engine_s %g, busy_cores %g on %d cores", i, res.EngineSeconds, res.BusyCores, runtime.GOMAXPROCS(0))
		}
		engine += res.EngineSeconds
		jobs = append(jobs, res)
	}
	// The same two numbers are on each job's log line.
	lines := logs.done(t)
	if len(lines) != len(jobs) {
		t.Fatalf("%d `job done` log lines for %d jobs", len(lines), len(jobs))
	}
	for i, line := range lines {
		if line["engine_s"] != jobs[i].EngineSeconds || line["busy_cores"] != jobs[i].BusyCores {
			t.Errorf("job %d logged engine_s=%v busy_cores=%v, responded %g and %g", i, line["engine_s"], line["busy_cores"], jobs[i].EngineSeconds, jobs[i].BusyCores)
		}
	}

	m := scrapeMetrics(t, cl)
	st := s.Stats()
	if math.Abs(st.EngineSeconds-engine) > 1e-9*engine || st.RankComputeSeconds <= 0 || st.RankComputeSeconds > engine*float64(runtime.GOMAXPROCS(0)) {
		t.Errorf("stats total %g engine and %g rank compute seconds; the jobs reported %g engine seconds", st.EngineSeconds, st.RankComputeSeconds, engine)
	}

	checks := []struct {
		metric string
		want   float64
	}{
		{"spgemmd_jobs_total", float64(st.Multiplies)},
		{"spgemmd_jobs_failed_total", float64(st.JobFailures)},
		{"spgemmd_jobs_queued_total", float64(st.QueuedJobs)},
		{"spgemmd_queue_wait_seconds_total", st.QueueWaitSeconds},
		{"spgemmd_queue_wait_max_seconds", st.QueueWaitMaxSeconds},
		{"spgemmd_engine_seconds_total", st.EngineSeconds},
		{"spgemmd_rank_compute_seconds_total", st.RankComputeSeconds},
		{"spgemmd_plan_cache_entries", float64(st.Plans)},
		{"spgemmd_plan_cache_hits_total", float64(st.PlanHits)},
		{"spgemmd_plan_cache_misses_total", float64(st.PlanMisses)},
		{"spgemmd_probes_total", float64(st.Probes)},
		{"spgemmd_resident_matrices", float64(st.Matrices)},
		{"spgemmd_traces_captured_total", float64(st.TracesCaptured)},
		{"spgemmd_ranks", float64(st.P)},
		{"spgemmd_worlds_idle", float64(st.IdleWorlds)},
		{"spgemmd_worlds_built_total", float64(st.WorldsBuilt)},
		{"spgemmd_worlds_dropped_total", float64(st.WorldsDropped)},
		{`spgemmd_requests_total{endpoint="load"}`, float64(st.Requests["load"])},
		{`spgemmd_requests_total{endpoint="multiply"}`, float64(st.Requests["multiply"])},
		{`spgemmd_requests_total{endpoint="metrics"}`, float64(st.Requests["metrics"])},
		{"spgemmd_job_duration_seconds_count", float64(st.Multiplies)},
		{"spgemmd_job_queue_wait_seconds_count", float64(st.Multiplies)},
	}
	for _, c := range checks {
		got, ok := m[c.metric]
		if !ok {
			t.Errorf("metric %s missing from /metrics", c.metric)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %g, /stats says %g", c.metric, got, c.want)
		}
	}
	if m["spgemmd_jobs_total"] != 3 {
		t.Errorf("jobs_total %g after 3 multiplies", m["spgemmd_jobs_total"])
	}
	// The three jobs ran one after another on one pair, so on one layer
	// count: the first built a world, the two warm ones ran on it.
	if st.WorldsBuilt != 1 || st.IdleWorlds != 1 || st.WorldsDropped != 0 {
		t.Errorf("three jobs on one layer count: %d worlds built, %d idle, %d dropped; want 1, 1, 0",
			st.WorldsBuilt, st.IdleWorlds, st.WorldsDropped)
	}
	// The same jobs by grid: one layer count, one schedule, all three jobs,
	// in /stats as in the snapshot and in /metrics.
	if len(st.JobsByGrid) != 1 || st.JobsByGrid[0].Jobs != st.Multiplies {
		t.Errorf("three jobs on one pair: jobs by grid %+v, want one grid with %d", st.JobsByGrid, st.Multiplies)
	}
	served, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(served.JobsByGrid, st.JobsByGrid) {
		t.Errorf("/stats jobs by grid %+v, the snapshot %+v", served.JobsByGrid, st.JobsByGrid)
	}
	for _, g := range st.JobsByGrid {
		key := fmt.Sprintf("spgemmd_jobs_by_grid_total{layers=\"%d\",schedule=%q}", g.Layers, g.Schedule)
		if got, ok := m[key]; !ok || got != float64(g.Jobs) {
			t.Errorf("%s = %g (present %v), /stats says %d", key, got, ok, g.Jobs)
		}
	}
	// The free lists' idle bytes: read under their locks, the same in the
	// snapshot, the served /stats and /metrics — nothing ran in between.
	if served.FreeListIdleBytes != st.FreeListIdleBytes {
		t.Errorf("/stats free list idle bytes %+v, the snapshot %+v", served.FreeListIdleBytes, st.FreeListIdleBytes)
	}
	for list, want := range map[string]int64{"loans": st.FreeListIdleBytes.Loans, "deals": st.FreeListIdleBytes.Deals} {
		key := fmt.Sprintf("spgemmd_free_list_idle_bytes{list=%q}", list)
		if got, ok := m[key]; !ok || got != float64(want) {
			t.Errorf("%s = %g (present %v), /stats says %d", key, got, ok, want)
		}
	}
	if m[`spgemmd_requests_total{endpoint="multiply"}`] != 3 {
		t.Errorf("multiply request counter %g, want 3", m[`spgemmd_requests_total{endpoint="multiply"}`])
	}

	// The histogram's +Inf bucket is the count, and buckets are cumulative.
	if m[`spgemmd_job_duration_seconds_bucket{le="+Inf"}`] != float64(st.Multiplies) {
		t.Errorf("+Inf bucket %g, want %d",
			m[`spgemmd_job_duration_seconds_bucket{le="+Inf"}`], st.Multiplies)
	}
	var prev float64
	for _, b := range jobBuckets {
		key := fmt.Sprintf("spgemmd_job_duration_seconds_bucket{le=%q}", formatBound(b))
		v, ok := m[key]
		if !ok {
			t.Fatalf("bucket %s missing", key)
		}
		if v < prev {
			t.Fatalf("bucket %s not cumulative: %g < %g", key, v, prev)
		}
		prev = v
	}
}

// TestTraceCaptureOverHTTP: ?trace=1 returns the job's Chrome trace-event
// document inline, and a configured TraceDir writes job-<id>.json.
func TestTraceCaptureOverHTTP(t *testing.T) {
	dir := t.TempDir()
	a := genmat.ER(64, 6, 17)
	cfg := testConfig(t, a)
	cfg.TraceDir = dir
	cl, _ := startServer(t, cfg)
	if _, err := cl.Load("a", a); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(MultiplyRequest{A: "a", B: "a"})
	resp, err := http.Post(cl.Base+"/multiply?trace=1", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var mr MultiplyResponse
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.JobID == 0 {
		t.Error("response carries no job id")
	}
	if len(mr.Trace) == 0 {
		t.Fatal("?trace=1 returned no trace")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(mr.Trace, &doc); err != nil {
		t.Fatalf("inline trace is not a trace-event document: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("inline trace has no events")
	}

	// The daemon also captured the trace to disk, named by job id.
	path := filepath.Join(dir, fmt.Sprintf("job-%d.json", mr.JobID))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("TraceDir capture: %v", err)
	}
	if !json.Valid(data) {
		t.Errorf("%s is not valid JSON", path)
	}

	// Without the query flag the response stays trace-free (and the default
	// path allocates no recorder beyond the TraceDir capture).
	res2, _, err := cl.Multiply(MultiplyRequest{A: "a", B: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Plan.CacheHit != true {
		t.Error("second multiply missed the plan cache")
	}
}

// TestReturnedProductOnMetrics: spgemmd_result_bytes_total counts the
// product wire bytes /multiply streams and spgemmd_encode_seconds_total the
// handler's time streaming them. Both read 0 before any job; one return_result
// job adds exactly its product's encoding; a job that returns nothing adds
// nothing.
func TestReturnedProductOnMetrics(t *testing.T) {
	a := genmat.ER(64, 6, 7)
	cl, _ := startServer(t, testConfig(t, a))
	if _, err := cl.Load("a", a); err != nil {
		t.Fatal(err)
	}
	const bytesMetric, secondsMetric = "spgemmd_result_bytes_total", "spgemmd_encode_seconds_total"
	read := func() (float64, float64) {
		t.Helper()
		m := scrapeMetrics(t, cl)
		b, okB := m[bytesMetric]
		s, okS := m[secondsMetric]
		if !okB || !okS {
			t.Fatalf("/metrics lacks %s or %s", bytesMetric, secondsMetric)
		}
		return b, s
	}
	if b, s := read(); b != 0 || s != 0 {
		t.Fatalf("before any job: %s = %g, %s = %g", bytesMetric, b, secondsMetric, s)
	}
	_, c, err := cl.Multiply(MultiplyRequest{A: "a", B: "a", ReturnResult: true})
	if err != nil {
		t.Fatal(err)
	}
	b, s := read()
	if b != float64(c.CommBytes()) || s <= 0 {
		t.Fatalf("after one returned product of %d wire bytes: %s = %g, %s = %g", c.CommBytes(), bytesMetric, b, secondsMetric, s)
	}
	if _, _, err := cl.Multiply(MultiplyRequest{A: "a", B: "a"}); err != nil {
		t.Fatal(err)
	}
	if b2, s2 := read(); b2 != b || s2 != s {
		t.Fatalf("a job without return_result moved %s %g -> %g, %s %g -> %g", bytesMetric, b, b2, secondsMetric, s, s2)
	}
}
