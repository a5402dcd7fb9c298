// Command bench is the repository's wall-clock benchmark. It generates four
// workloads from a seed, runs them against the engine and the daemon through
// their public functions, checks every output against its own reference
// SpGEMM, and reports end-to-end metrics (untraced) or per-layer metrics
// (traced). See README.md.
//
//	bash bench/run.sh                                   all workloads, end to end
//	bash bench/run.sh -trace 1                          all workloads, per layer
//	bash bench/run.sh -workload kmer-hyper -seed 7      one workload; last line is JSON
//	bash bench/run.sh -compare a.json,b.json c.json     set A against set B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// options are the command line.
type options struct {
	workload       string
	seed           int64
	seconds        float64
	trace          int
	scale, out     string
	compare, print bool
	args           []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result as one JSON line (empty = all, written to -out)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every input generator")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long each workload's timed series runs")
	flag.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics with tracing off; 1 = per-layer metrics from the traced run")
	flag.StringVar(&o.scale, "scale", "full", "full | smoke (toy sizes, two operations)")
	flag.StringVar(&o.out, "out", "out", "directory for result.json and trace files")
	flag.BoolVar(&o.compare, "compare", false, "compare two sets of result files: -compare a.json,b.json c.json,d.json")
	flag.BoolVar(&o.print, "describe", false, "print BENCHMARK.json from the metric and workload tables")
	flag.Parse()
	o.args = flag.Args()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.print:
		return describe(os.Stdout)
	case o.compare:
		if len(o.args) != 2 {
			return fmt.Errorf("-compare takes two comma-separated lists of result files")
		}
		return compareSets(os.Stdout, o.args[0], o.args[1])
	}
	name, seed, seconds, trace, scale, out := o.workload, o.seed, o.seconds, o.trace, o.scale, o.out
	if scale != "full" && scale != "smoke" {
		return fmt.Errorf("unknown -scale %q", scale)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace is 0 or 1")
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	selected := workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	rep := report{Env: environment(), Seed: seed, Seconds: seconds, Trace: trace == 1, Scale: scale}
	failed := false
	for _, w := range selected {
		var res result
		var err error
		if trace == 1 {
			res, err = traceRun(w, seed, seconds, scale == "smoke", filepath.Join(out, "trace-"+w.name+".json"))
		} else {
			res, err = measure(w, seed, seconds, scale == "smoke")
		}
		if err != nil {
			return err
		}
		printResult(res)
		rep.Workloads = append(rep.Workloads, res)
		failed = failed || !res.Correct
	}

	if name == "" {
		path := filepath.Join(out, "result.json")
		if trace == 1 {
			path = filepath.Join(out, "result-trace.json")
		}
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	} else {
		// The driver's contract: the last line of standard output is the
		// workload's result as one JSON object.
		res := rep.Workloads[0]
		line, err := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
		})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if failed {
		return fmt.Errorf("a result check failed")
	}
	return nil
}

// report is what result.json holds: the environment the numbers were taken
// in, and one result per workload.
type report struct {
	Env       env      `json:"env"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Scale     string   `json:"scale"`
	Workloads []result `json:"workloads"`
}

func printResult(r result) {
	fmt.Printf("== %s: %d operations, %d failed; calib_s %.5f\n", r.Workload, r.Attempted, r.Failed, r.CalibS)
	if r.Error != "" {
		fmt.Printf("   first failure: %s\n", r.Error)
	}
	w := r.OpWallS
	fmt.Printf("   op wall s, as measured: N=%d min=%.5f q1=%.5f p50=%.5f q3=%.5f max=%.5f\n", w.N, w.Min, w.Q1, w.P50, w.Q3, w.Max)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("   %-36s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// describe prints BENCHMARK.json as the tables in this package define it.
func describe(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// runSeconds is the run length BENCHMARK.json asks the driver for.
const runSeconds = 15
