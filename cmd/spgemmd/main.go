// Command spgemmd is the multiply-as-a-service daemon: it holds distributed
// matrices resident across requests, caches planner decisions so repeat
// multiplies skip probe work, and admits concurrent jobs under a shared
// memory budget. The HTTP API (documented in SERVICE.md; JSON, with matrices
// crossing as their binary wire bytes) exposes:
//
//	POST /load      make a matrix resident (wire bytes as the body of
//	                /load?name=…, or JSON: Matrix Market text or a
//	                server-side deterministic generator); -mem bounds what
//	                an uploaded body may make the daemon allocate
//	POST /plan      the (cached) planner decision for a resident pair
//	POST /multiply  plan, admit, and execute one job (?trace=1 returns the
//	                job's per-rank Chrome/Perfetto trace; return_result
//	                appends the product's wire bytes to the JSON line)
//	GET  /stats     plan-cache, probe, admission, and job counters (JSON)
//	GET  /matrices  resident matrices and their fingerprints
//	GET  /metrics   the same telemetry in Prometheus text format
//
// Usage:
//
//	spgemmd                                   # 16 ranks, Cori-KNL, :8347
//	spgemmd -p 64 -mem 64MB -machine haswell  # bigger cluster, tight budget
//	spgemmd -addr 127.0.0.1:9000 -threads 4
//	spgemmd -tracedir traces                  # write every job's span trace
//	    # to traces/job-<id>.json
//	spgemmd -pprof                            # mount net/http/pprof under
//	    # /debug/pprof/ for live profiling
//
// Logs are structured (log/slog, text format, stderr): every completed job
// logs one line with its job ID, operand fingerprints, plan-cache outcome,
// queue wait, and duration.
//
// Clients: `spgemm-bench -server URL -exp service` drives a soak workload;
// `mcl -server URL`, the examples, and any HTTP client speak the same API.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/costmodel"
	"repro/internal/service"
)

// logger is the process-wide structured logger; the service shares it for
// its per-job lines.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8347", "listen address")
		p         = flag.Int("p", 16, "rank count every job runs on")
		machine   = flag.String("machine", "knl", "machine model: knl | haswell | knl-ht | local")
		memStr    = flag.String("mem", "", "aggregate memory budget shared by concurrent jobs, with optional suffix: 4GB, 512MB, 1e9 (empty = unconstrained)")
		threads   = flag.Int("threads", 1, "most worker goroutines per rank in local kernels (cores go to ranks first)")
		traceDir  = flag.String("tracedir", "", "directory for per-job span traces (job-<id>.json, Chrome trace-event format); created if missing (empty = no capture)")
		pprofFlag = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	m, err := costmodel.ByName(*machine)
	if err != nil {
		fatal(err)
	}
	mem, err := costmodel.ParseBytes(*memStr)
	if err != nil {
		fatal(fmt.Errorf("-mem: %w", err))
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(fmt.Errorf("-tracedir: %w", err))
		}
	}
	svc, err := service.New(service.Config{
		P: *p, Machine: m, MemBytes: mem, Threads: *threads,
		Logger: logger, TraceDir: *traceDir,
	})
	if err != nil {
		fatal(err)
	}

	handler := service.Handler(svc)
	if *pprofFlag {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	logger.Info("serving", "addr", *addr, "p", *p, "machine", m.Name,
		"mem_bytes", mem, "threads", *threads, "pprof", *pprofFlag, "tracedir", *traceDir)
	if err := newServer(*addr, handler).ListenAndServe(); err != nil {
		fatal(err)
	}
}

// The server's timeouts: a client has readHeaderTimeout to send its request
// header, and a kept-alive connection with no request for idleTimeout is
// closed. Without them a client that opens a connection and never finishes
// its header holds the connection and its goroutine forever.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer is the daemon's HTTP server for handler on addr. ReadTimeout and
// WriteTimeout stay unset: they would bound the whole body and the whole
// response, and a /load body or a streamed product may be large.
func newServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spgemmd:", err)
	os.Exit(1)
}
