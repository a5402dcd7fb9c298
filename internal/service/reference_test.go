package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/planner"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// quantised replaces every value of m by an integer in 1..4, so products and
// sums are exact in float64 and a product can be held to a reference exactly,
// whatever order either side accumulated in.
func quantised(m *spmat.CSC) *spmat.CSC {
	for q := range m.Val {
		m.Val[q] = float64(1 + (q*7+3)%4)
	}
	return m
}

// TestDaemonProductsMatchSerialReference holds what the daemon returns to a
// serial multiply of the unsplit operands, exactly, on the traffic the
// benchmark's service workloads send, a quarter of their size: resident-warm's
// three generated operands and four pairs, and a Markov-clustering iterate
// times itself. At this size the plans the daemon picks for them cover l = 1
// (sorted Merge-Layer, pass-through Merge-Fiber) and l = 16, where q = 1
// (one plan, merged once); smaller operands all plan to l = 4. On the way
// it pins that a plan names no kernel or merger any more — every plan runs
// the sort-free hash pair — while a choice an older build serialized with
// them still decodes and applies, and that the counter of the deleted
// recalibration is gone from /metrics.
func TestDaemonProductsMatchSerialReference(t *testing.T) {
	mats := map[string]*spmat.CSC{}
	for name, g := range map[string]GeneratorSpec{
		"rmat":  {Kind: "rmat", Scale: 9, EdgeFactor: 8, Seed: 41},
		"er":    {Kind: "er", N: 512, EdgeFactor: 8, Seed: 42},
		"hyper": {Kind: "hypersparse", N: 4096, Cols: 4096, NnzPerCol: 2, Seed: 43},
	} {
		m, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		mats[name] = quantised(m)
	}
	// An MCL iterate: the graph with self-loops, mass concentrating in few
	// columns as the iteration goes on.
	loops := genmat.RMAT(genmat.RMATConfig{Scale: 9, EdgeFactor: 4, Seed: 44, Weighted: true})
	mats["mcl"] = quantised(spmat.Add(loops, spmat.Identity(loops.Rows), nil))

	mem := 4 * 24 * localmm.Flops(mats["rmat"], mats["rmat"]) // the benchmark's budget rule
	cl, _ := startServer(t, Config{P: 16, MemBytes: mem})
	for name, m := range mats {
		if _, err := cl.Load(name, m); err != nil {
			t.Fatal(err)
		}
	}

	layers := map[int]bool{}
	for _, pr := range [][2]string{{"rmat", "rmat"}, {"er", "er"}, {"hyper", "hyper"}, {"rmat", "er"}, {"mcl", "mcl"}} {
		resp, got, err := cl.Multiply(MultiplyRequest{A: pr[0], B: pr[1], ReturnResult: true})
		if err != nil {
			t.Fatalf("%s*%s: %v", pr[0], pr[1], err)
		}
		want := localmm.Multiply(mats[pr[0]], mats[pr[1]], semiring.PlusTimes())
		if !got.SortedCols || !spmat.Equal(got, want) {
			t.Errorf("%s*%s under %v: got %v, the serial reference is %v", pr[0], pr[1], resp.Plan.Choice, got, want)
		}
		layers[resp.Plan.Choice.L] = true
		if s := resp.Plan.Choice.String(); strings.Contains(s, "kernel") || strings.Contains(s, "merger") {
			t.Errorf("%s*%s: the choice still names a kernel or merger: %s", pr[0], pr[1], s)
		}
	}
	if !layers[1] || !layers[16] {
		t.Errorf("the plans cover layer counts %v; the test means to run l = 1 and l = 16", layers)
	}

	st, _, body := postRaw(t, cl, "/plan", "application/json", []byte(`{"a":"rmat","b":"er"}`))
	if st != http.StatusOK || strings.Contains(string(body), "kernel") || strings.Contains(string(body), "merger") {
		t.Errorf("/plan answered %d %s; want a plan with no kernel or merger in it", st, body)
	}

	// What a build that still selected kernels stored or sent.
	var old planner.Choice
	legacy := `{"layers":4,"batches":2,"format":"dcsc","pipeline":true,"sparse_comm":"auto","channels":2,"kernel":"heap","merger":"heap-merge","model_seconds":0.25,"peak_mem_bytes_per_rank":4096}`
	if err := json.Unmarshal([]byte(legacy), &old); err != nil {
		t.Fatalf("a choice serialized with kernel and merger no longer decodes: %v", err)
	}
	rc, err := core.ApplyChoice(core.RunConfig{P: 16, L: 1}, old)
	if err != nil {
		t.Fatalf("a choice serialized with kernel and merger no longer applies: %v", err)
	}
	if rc.L != 4 || rc.Opts.Format != spmat.FormatDCSC || !rc.Opts.Pipeline || rc.Opts.Channels != 2 {
		t.Errorf("the legacy choice applied as l=%d format=%v pipeline=%t k=%d", rc.L, rc.Opts.Format, rc.Opts.Pipeline, rc.Opts.Channels)
	}
	if rc.Opts.Kernel != localmm.KernelHashUnsorted || rc.Opts.Merger != localmm.MergerHash {
		t.Errorf("the legacy choice pinned %v / %v; every plan runs the hash pair", rc.Opts.Kernel, rc.Opts.Merger)
	}

	for name := range scrapeMetrics(t, cl) {
		if strings.HasPrefix(name, "spgemmd_kernel_observations_total") {
			t.Errorf("/metrics still exports %s", name)
		}
	}
}
