// Command spgemm-bench regenerates the tables and figures of the paper's
// evaluation section on the simulated cluster, and runs the deterministic
// performance-regression gate CI uses.
//
// Usage:
//
//	spgemm-bench -exp list                 # show every experiment
//	spgemm-bench -exp fig6                 # regenerate one figure
//	spgemm-bench -exp all -scale small     # the full evaluation
//	spgemm-bench -exp fig13 -machine haswell
//	spgemm-bench -exp fig6 -threads 8      # multithreaded local kernels
//
// Every experiment runs the configurations it pins; an engine option is
// swept by the experiment that studies it:
//
//	spgemm-bench -exp pipeline             # staged vs fully-overlapped schedule
//	spgemm-bench -exp hypersparse          # CSC vs DCSC block storage
//	spgemm-bench -exp sparsecomm           # full vs column-subset A-broadcasts
//	spgemm-bench -exp table7               # hash kernel and merge steps over layers (also fig15)
//	spgemm-bench -exp spmm                 # sparse×dense: SUMMA vs 1.5D over c
//	spgemm-bench -exp planner              # every axis, overlap channels included
//
//	spgemm-bench -gate -json BENCH_pr3.json                            # emit the stats dump
//	spgemm-bench -gate -json BENCH_pr3.json -baseline BENCH_baseline.json
//	    # additionally compare: exit 1 if modeled critical-path seconds
//	    # regress more than -tol (default 5%) vs the checked-in baseline
//
//	spgemm-bench -autotune                 # plan each gate shape, print the
//	    # ranked configurations + why, run the pick, show predicted-vs-measured
//	spgemm-bench -plangate                 # planner-vs-oracle CI gate: exit 1
//	    # when any pick is >10% (-tol) above the exhaustive sweep's best
//
//	spgemm-bench -server http://127.0.0.1:8347 -exp service -scale tiny
//	    # spgemmd-client mode: drive a running spgemmd daemon with the
//	    # service soak duty cycle instead of simulating in-process
//
//	spgemm-bench -trace out.json                              # re-run one
//	    # pinned gate shape with span recording on and write the per-rank
//	    # Chrome/Perfetto trace (load in chrome://tracing or ui.perfetto.dev)
//	spgemm-bench -trace out.json -traceshape fig6-friendster-staged
//
// Scales: tiny (seconds), small (default), large (minutes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/service"
)

func main() {
	var (
		exp      = flag.String("exp", "list", "experiment id ('list' prints them all) or 'all'")
		scale    = flag.String("scale", "small", "workload scale: tiny | small | large")
		machine  = flag.String("machine", "knl", "machine model: knl | haswell | knl-ht | local")
		threads  = flag.Int("threads", 1, "most worker goroutines per rank in local multiply/merge kernels (1 = serial, the published figure shapes); extra workers run only on cores no rank is waiting for")
		gate     = flag.Bool("gate", false, "run the deterministic perf-regression gate on pinned fig-6/8 shapes instead of an experiment")
		autotune = flag.Bool("autotune", false, "plan the gate shapes with the analytical autotuner, print each ranked plan, run the chosen configuration, and show the predicted-vs-measured per-step breakdown")
		plangate = flag.Bool("plangate", false, "planner-vs-oracle gate: exit 1 when the planner's pick is more than -tol above the exhaustive sweep's best modeled critical path")
		server   = flag.String("server", "", "spgemmd-client mode: base URL of a running spgemmd (e.g. http://127.0.0.1:8347); drives the remote daemon with the service soak instead of running in-process")
		traceOut = flag.String("trace", "", "re-run one pinned gate shape with span recording on and write its per-rank Chrome trace-event JSON to this path (loadable in chrome://tracing / Perfetto)")
		trShape  = flag.String("traceshape", "fig6-friendster-overlapped", "with -trace: which pinned gate shape to record")
		jsonPath = flag.String("json", "", "with -gate: write the stats dump (BENCH_pr3.json) to this path")
		baseline = flag.String("baseline", "", "with -gate: compare against this checked-in baseline and exit nonzero on regression")
		tol      = flag.Float64("tol", 0, "relative tolerance: modeled critical-path regression for -gate -baseline (default 5%), planner-vs-oracle gap for -plangate (default 10%); an explicit 0 means strict")
	)
	flag.Parse()
	// Distinguish an explicit `-tol 0` (strict) from the flag being absent
	// (per-gate default); the two gates default differently.
	tolSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "tol" {
			tolSet = true
		}
	})

	if *traceOut != "" {
		runTrace(*traceOut, *trShape)
		return
	}

	if *server != "" {
		sc, err := experiments.ParseScale(*scale)
		if err != nil {
			fatal(err)
		}
		runServiceClient(*server, sc)
		return
	}

	if *gate {
		gateTol := *tol
		if !tolSet {
			gateTol = experiments.GateTolerance
		}
		runGate(*jsonPath, *baseline, gateTol)
		return
	}

	if *autotune || *plangate {
		sc, err := experiments.ParseScale(*scale)
		if err != nil {
			fatal(err)
		}
		if *autotune {
			if err := experiments.RunAutotune(experiments.RunOpts{Scale: sc}, os.Stdout); err != nil {
				fatal(err)
			}
		}
		if *plangate {
			planTol := *tol
			if !tolSet {
				planTol = experiments.PlanGateTolerance
			}
			runPlanGate(sc, planTol)
		}
		return
	}

	if *exp == "list" {
		fmt.Println("available experiments:")
		for _, e := range experiments.List() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		return
	}

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	m, err := costmodel.ByName(*machine)
	if err != nil {
		fatal(err)
	}
	opts := experiments.RunOpts{Scale: sc, Machine: m, Threads: *threads}

	var list []*experiments.Experiment
	if *exp == "all" {
		list = experiments.List()
	} else {
		e, err := experiments.Get(*exp)
		if err != nil {
			fatal(err)
		}
		list = []*experiments.Experiment{e}
	}

	for _, e := range list {
		start := time.Now()
		rep, err := e.Run(opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		if err := rep.Render(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// runTrace re-runs one pinned gate shape with the span recorder attached and
// writes the Chrome trace-event document. The run is exactly the gate's
// configuration, so the timeline shows the schedule the gate numbers measure.
func runTrace(path, shape string) {
	start := time.Now()
	rec, sum, err := experiments.RunTraceShape(shape)
	if err != nil {
		fatal(err)
	}
	if err := rec.WriteTraceFile(path); err != nil {
		fatal(err)
	}
	fmt.Printf("traced %s: %d spans across %d ranks, modeled critical path %.6gs (%v)\n",
		shape, len(rec.Spans()), sum.Ranks, sum.CriticalPathSeconds, time.Since(start).Round(time.Millisecond))
	fmt.Printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", path)
}

// runServiceClient is the spgemmd-client mode: it drives a remote daemon
// with the service soak duty cycle (load generated workloads, one sequential
// warmup pass, then the concurrent mix) and renders the same report the
// in-process experiment produces. The daemon's knobs (p, machine, budget)
// are whatever it was started with; a warm daemon keeps its matrices and
// plans, so a second invocation shows zero probe work end to end.
func runServiceClient(base string, sc experiments.Scale) {
	start := time.Now()
	cl := &service.Client{Base: base}
	if _, err := cl.Stats(); err != nil {
		fatal(fmt.Errorf("cannot reach spgemmd at %s: %w", base, err))
	}
	rep, err := experiments.DriveService(cl, sc)
	if err != nil {
		fatal(err)
	}
	if err := rep.Render(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("(remote soak against %s completed in %v)\n", base, time.Since(start).Round(time.Millisecond))
}

// runGate executes the pinned shapes, optionally dumps the JSON report, and
// optionally enforces the baseline comparison.
func runGate(jsonPath, baselinePath string, tol float64) {
	start := time.Now()
	rep, err := experiments.RunGate()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("perf gate (pinned fig-6/8 shapes, %v):\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("  %-28s %6s  %14s  %12s  %12s  %10s\n",
		"shape", "gated", "model s", "comm s", "hidden s", "MB moved")
	for _, s := range rep.Shapes {
		fmt.Printf("  %-28s %6v  %14.6g  %12.6g  %12.6g  %10.2f\n",
			s.Name, s.Gated, s.ModelSeconds, s.CommSeconds, s.HiddenCommSeconds,
			float64(s.Bytes)/1e6)
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}

	if baselinePath != "" {
		data, err := os.ReadFile(baselinePath)
		if err != nil {
			fatal(fmt.Errorf("baseline: %w", err))
		}
		var base experiments.GateReport
		if err := json.Unmarshal(data, &base); err != nil {
			fatal(fmt.Errorf("baseline %s: %w", baselinePath, err))
		}
		if bad := experiments.CompareGate(rep, &base, tol); len(bad) != 0 {
			for _, msg := range bad {
				fmt.Fprintln(os.Stderr, "spgemm-bench: REGRESSION:", msg)
			}
			os.Exit(1)
		}
		fmt.Printf("gate passed: no gated shape regressed more than %.0f%% vs %s\n", tol*100, baselinePath)
	}
}

// runPlanGate runs the planner-vs-oracle comparison on every planner-gate
// shape, printing each shape's pick, the oracle's best and the gap, and exits
// nonzero when the planner's pick is more than tol above the exhaustive
// sweep's best modeled critical path.
func runPlanGate(sc experiments.Scale, tol float64) {
	start := time.Now()
	bad, err := experiments.RunPlanGate(sc, tol, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if len(bad) != 0 {
		for _, msg := range bad {
			fmt.Fprintln(os.Stderr, "spgemm-bench: PLANNER REGRESSION:", msg)
		}
		os.Exit(1)
	}
	fmt.Printf("planner gate passed: every pick within %.0f%% of the oracle sweep's best (%v)\n",
		tol*100, time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spgemm-bench:", err)
	os.Exit(1)
}
