package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// compareSets reads two sets of result.json files (comma-separated lists) and
// prints, per workload and end-to-end metric, each set's median, how much
// worse set B is as a share of set A against the metric's bound, and a
// verdict. The verdict is "unresolved" rather than "regressed" or "ok" when
// the host ran at a different speed under the two sets (calibration medians
// more than a tenth apart) or when either set's own spread, the distance
// between its quartiles over its median, is wider than the bound.
func compareSets(w io.Writer, listA, listB string) error {
	a, err := readReports(listA)
	if err != nil {
		return err
	}
	b, err := readReports(listB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %d runs  B: %d runs\n", len(a), len(b))
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "A median", "B median", "B worse", "bound", "spread", "verdict")
	for _, wl := range workloads {
		calibA, calibB := median(calibOf(a, wl.name)), median(calibOf(b, wl.name))
		drift := math.Abs(calibB-calibA) / calibA
		failA, failB := failedOf(a, wl.name), failedOf(b, wl.name)
		for _, m := range endToEnd {
			va, vb := valuesOf(a, wl.name, m.Name), valuesOf(b, wl.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == higher {
				worse = (ma - mb) / ma
			}
			spread := math.Max(spreadOf(va), spreadOf(vb))
			verdict := "ok"
			switch {
			case failA+failB > 0:
				verdict = fmt.Sprintf("failed operations (A %d, B %d)", failA, failB)
			case drift > 0.10:
				verdict = fmt.Sprintf("unresolved (calib_s %.4f vs %.4f)", calibA, calibB)
			case spread > m.Bound:
				verdict = "unresolved (spread over bound)"
			case worse > m.Bound:
				verdict = "regressed"
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				wl.name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*spread, verdict)
		}
	}
	return nil
}

func readReports(list string) ([]report, error) {
	var out []report
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func eachResult(reps []report, workload string, fn func(result)) {
	for _, rep := range reps {
		for _, r := range rep.Workloads {
			if r.Workload == workload {
				fn(r)
			}
		}
	}
}

func valuesOf(reps []report, workload, metric string) []float64 {
	var out []float64
	eachResult(reps, workload, func(r result) {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	})
	return out
}

func calibOf(reps []report, workload string) []float64 {
	var out []float64
	eachResult(reps, workload, func(r result) { out = append(out, r.CalibS) })
	return out
}

func failedOf(reps []report, workload string) int {
	n := 0
	eachResult(reps, workload, func(r result) { n += r.Failed })
	return n
}

// spreadOf is the distance between the quartiles as a share of the median; a
// single value has none.
func spreadOf(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	return math.Abs(quantile(vals, 0.75)-quantile(vals, 0.25)) / math.Abs(median(vals))
}
