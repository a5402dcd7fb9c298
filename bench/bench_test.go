package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smoke runs every workload once untraced and once traced at toy size.
func smoke(t *testing.T, seed int64) map[string][2]result {
	t.Helper()
	out := map[string][2]result{}
	for _, w := range workloads {
		plain, err := measure(w, seed, 0.01, true)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := traceRun(w, seed, 0.01, true, filepath.Join(t.TempDir(), "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		out[w.name] = [2]result{plain, traced}
	}
	return out
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := describe(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("BENCHMARK.json differs from `bench -describe`; regenerate it")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for _, w := range doc.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad name, repeated, or a why of %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
}

// exactCounts are the per-layer metrics that are properties of the inputs and
// the schedule alone.
var exactCounts = []string{
	"spmat.wire_bytes", "localmm.flops", "localmm.unmerged_nnz", "localmm.output_nnz",
	"mpi.collectives_per_op", "mpi.comm_bytes_per_op", "core.batches", "core.work_units",
	"core.model_comm_s", "core.step.Local-Multiply.work_units", "core.step.A-Broadcast.bytes",
}

func TestSmokeMetrics(t *testing.T) {
	first, again, other := smoke(t, 1), smoke(t, 1), smoke(t, 2)
	for _, w := range workloads {
		for x, defs := range [][]metricDef{endToEnd, perLayer} {
			r := first[w.name][x]
			if !r.Correct || r.Failed != 0 || r.Attempted < 2 {
				t.Errorf("%s: correct=%v failed=%d attempted=%d: %s", w.name, r.Correct, r.Failed, r.Attempted, r.Error)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s: %d metrics reported, %d defined", w.name, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := r.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s missing, mis-united or not finite: %+v", w.name, d.Name, v)
				}
				if x == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, d.Name, v.Value)
				}
			}
		}
		same := func(x int, name string) {
			a, b, c := first[w.name][x].Metrics[name].Value, again[w.name][x].Metrics[name].Value, other[w.name][x].Metrics[name].Value
			if a != b {
				t.Errorf("%s: %s is %v and then %v for the same seed", w.name, name, a, b)
			}
			if a == c && name != "core.batches" && name != "mpi.collectives_per_op" {
				t.Errorf("%s: %s is %v for seeds 1 and 2", w.name, name, a)
			}
		}
		same(0, "model_s_per_op")
		same(0, "peak_mem_mb_per_rank")
		for _, name := range exactCounts {
			same(1, name)
		}
	}
}

func TestOracleAgreesWithLocalmm(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, err := generate(genSpec{Kind: "er", N: 256, EdgeFactor: 5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(genSpec{Kind: "rmat", Scale: 8, EdgeFactor: 6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		quantise(a, seed)
		quantise(b, seed+1)
		want, kept := refMultiply(toRef(a), toRef(b), true)
		if got := signatureOf(toRef(mulBlocks(runConfig{}, a, b, 1).ToCSC())); !got.equalExact(want) {
			t.Errorf("seed %d: localmm %+v, reference %+v", seed, got, want)
		}
		if got := signatureOf(kept); got != want {
			t.Errorf("seed %d: kept product %+v, its signature %+v", seed, got, want)
		}
		if f := refFlops(toRef(a), toRef(b)); f != flopsOf(a, b) {
			t.Errorf("seed %d: reference counts %d flops, localmm %d", seed, f, flopsOf(a, b))
		}
	}
}

func TestCorruptedResultCountsAsFailed(t *testing.T) {
	a, at := genKmer(64, 512, 4, 0.1, 1)
	quantise(a, 1)
	quantise(at, 2)
	want, _ := refMultiply(toRef(a), toRef(at), false)
	rc := engineConfig(4, 1, 1, 0, 1)
	corrupt := false
	inst := &instance{clients: 1, op: func(_ int, _ *tracer) error {
		c, _, err := engineMultiply(a, at, rc)
		if err != nil {
			return err
		}
		if corrupt {
			c.Val[len(c.Val)/2]++
		}
		if !signatureOf(toRef(c)).equalExact(want) {
			return errors.New("signature mismatch")
		}
		return nil
	}}
	var r result
	r.fill(runSeries(inst, 0, 3, nil))
	if !r.Correct || r.Failed != 0 || r.Attempted != 3 {
		t.Fatalf("clean run: %+v", r)
	}
	corrupt = true
	r.fill(runSeries(inst, 0, 3, nil))
	if r.Correct || r.Failed != 3 || r.Attempted != 3 || r.Error == "" {
		t.Fatalf("corrupted run: %+v", r)
	}
}

func TestCompareFlagsDriftAndRegression(t *testing.T) {
	write := func(name string, wall, calib float64) string {
		rep := report{Workloads: []result{{
			Workload: "kmer-hyper", Correct: true, Attempted: 10, CalibS: calib,
			Metrics: map[string]metricValue{"op_norm_s_p50": {Value: wall, Unit: "s"}},
		}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 0.100, 0.030)
	for _, tc := range []struct {
		wall, calib float64
		want        string
	}{
		{0.101, 0.030, "ok"},
		{0.150, 0.030, "regressed"},
		{0.050, 0.030, "improved"},
		{0.150, 0.040, "unresolved"},
	} {
		var out bytes.Buffer
		if err := compareSets(&out, base, write("b.json", tc.wall, tc.calib)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(out.Bytes(), []byte(tc.want)) {
			t.Errorf("wall %v calib %v: want %q in\n%s", tc.wall, tc.calib, tc.want, out.String())
		}
	}
}
