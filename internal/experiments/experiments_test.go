package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
)

func tinyOpts() RunOpts {
	return RunOpts{Scale: ScaleTiny, Machine: costmodel.CoriKNL()}
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation section must be registered.
	want := []string{
		"table2", "table3", "table5", "table6", "table7",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"hypersparse", "pipeline", "planner", "service", "sparsecomm", "spmm",
	}
	for _, id := range want {
		if _, err := Get(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
	}
	if len(List()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(List()), len(want))
	}
	if _, err := Get("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestListOrdered(t *testing.T) {
	ids := List()
	// tables first, then figures in numeric order, then named ablations.
	if ids[0].ID != "table2" {
		t.Errorf("first is %s", ids[0].ID)
	}
	last := ids[len(ids)-1]
	if last.ID != "spmm" {
		t.Errorf("last is %s", last.ID)
	}
	if ids[len(ids)-2].ID != "sparsecomm" {
		t.Errorf("second to last is %s", ids[len(ids)-2].ID)
	}
	if ids[len(ids)-3].ID != "service" {
		t.Errorf("third to last is %s", ids[len(ids)-3].ID)
	}
	if ids[len(ids)-4].ID != "planner" {
		t.Errorf("fourth to last is %s", ids[len(ids)-4].ID)
	}
	if ids[len(ids)-5].ID != "pipeline" {
		t.Errorf("fifth to last is %s", ids[len(ids)-5].ID)
	}
}

// TestAllExperimentsRunTiny executes every experiment end to end at tiny
// scale: the complete reproduction pipeline must work, and every run an
// experiment makes must match its record in testdata/runs (`make golden`
// regenerates them).
func TestAllExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow in -short mode")
	}
	for _, e := range List() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, runs, err := runRecorded(e, tinyOpts())
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			checkRunRecords(t, e.ID, runs)
			if rep.ID != e.ID {
				t.Errorf("report id %q", rep.ID)
			}
			if len(rep.Tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range rep.Tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %q empty", tb.Name)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Errorf("table %q: row width %d, header %d", tb.Name, len(row), len(tb.Header))
					}
				}
			}
			var buf bytes.Buffer
			if err := rep.Render(&buf); err != nil {
				t.Fatalf("render: %v", err)
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) {
				t.Error("render missing id")
			}
			if len(rep.Findings) == 0 {
				t.Errorf("%s produced no findings", e.ID)
			}
		})
	}
}

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"tiny": ScaleTiny, "small": ScaleSmall, "large": ScaleLarge, "": ScaleSmall} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q)=%v,%v", s, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("bad scale accepted")
	}
}

func TestWorkloadsAll(t *testing.T) {
	for _, name := range WorkloadNames {
		a, err := Workload(name, ScaleTiny)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.NNZ() == 0 {
			t.Errorf("%s: empty matrix", name)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Determinism.
		b, _ := Workload(name, ScaleTiny)
		if a.NNZ() != b.NNZ() {
			t.Errorf("%s: non-deterministic", name)
		}
	}
	if _, err := Workload("nope", ScaleTiny); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWorkloadScalesGrow(t *testing.T) {
	small, _ := Workload(WLEukarya, ScaleTiny)
	big, _ := Workload(WLEukarya, ScaleSmall)
	if big.NNZ() <= small.NNZ() {
		t.Errorf("small scale (%d nnz) not larger than tiny (%d nnz)", big.NNZ(), small.NNZ())
	}
}

func TestPairFor(t *testing.T) {
	sq, _ := Workload(WLEukarya, ScaleTiny)
	a, b := PairFor(sq)
	if a != b {
		t.Error("square workload should pair with itself")
	}
	rect, _ := Workload(WLRiceKmers, ScaleTiny)
	a, b = PairFor(rect)
	if a == b || b.Rows != rect.Cols || b.Cols != rect.Rows {
		t.Error("rectangular workload should pair with its transpose")
	}
}

func TestArrowClassifier(t *testing.T) {
	if arrow(10, 20, 0.15) != "↑" || arrow(20, 10, 0.15) != "↓" || arrow(10, 10.5, 0.15) != "↔" {
		t.Error("arrow misclassifies")
	}
	if arrow(0, 0, 0.1) != "↔" || arrow(0, 5, 0.1) != "↑" {
		t.Error("arrow zero handling wrong")
	}
}

func TestRenderAlignment(t *testing.T) {
	r := &Report{ID: "x", Title: "t"}
	tb := r.NewTable("demo", "a", "bbbb")
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	var header string
	for _, l := range lines {
		if strings.HasPrefix(l, "a") {
			header = l
			break
		}
	}
	if !strings.Contains(header, "bbbb") {
		t.Errorf("header misrendered: %q", header)
	}
}

// TestPipelineExperimentReportsHiddenComm pins the PR's acceptance criterion:
// on the fig-6 shape the staged-vs-overlapped ablation must report nonzero
// hidden seconds for the broadcast categories AND the fiber AllToAll.
func TestPipelineExperimentReportsHiddenComm(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow in -short mode")
	}
	e, err := Get("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) < 2 {
		t.Fatalf("want fig6 and fig8 tables, got %d", len(rep.Tables))
	}
	fig6 := rep.Tables[0]
	if !strings.Contains(fig6.Name, "fig6") {
		t.Fatalf("first table is %q, want the fig6 shape", fig6.Name)
	}
	hiddenOf := func(tb *Table, step string) float64 {
		for _, row := range tb.Rows {
			if row[0] == step {
				v, err := strconv.ParseFloat(row[3], 64)
				if err != nil {
					t.Fatalf("%s hidden cell %q: %v", step, row[3], err)
				}
				return v
			}
		}
		t.Fatalf("step %s missing from table %q", step, tb.Name)
		return 0
	}
	for _, step := range []string{"A-Broadcast", "B-Broadcast", "AllToAll-Fiber"} {
		if h := hiddenOf(fig6, step); h <= 0 {
			t.Errorf("fig6 shape: %s hidden seconds = %v, want > 0", step, h)
		}
	}
}

// TestGateDeterministicAndComparable: the perf gate's gated metrics must be
// identical across runs (they are modeled, not measured — that is what makes
// a 5%% CI threshold trustworthy), self-comparison must pass, and inflated or
// missing shapes must be flagged.
func TestGateDeterministicAndComparable(t *testing.T) {
	if testing.Short() {
		t.Skip("gate runs full shapes; slow in -short mode")
	}
	r1, err := RunGate()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunGate()
	if err != nil {
		t.Fatal(err)
	}
	var gated int
	for _, s1 := range r1.Shapes {
		s2 := r2.Shape(s1.Name)
		if s2 == nil {
			t.Fatalf("shape %s missing from second run", s1.Name)
		}
		if !s1.Gated {
			continue
		}
		gated++
		if s1.ModelSeconds != s2.ModelSeconds || s1.CommSeconds != s2.CommSeconds ||
			s1.WorkUnits != s2.WorkUnits || s1.Bytes != s2.Bytes {
			t.Errorf("%s: gated metrics not deterministic:\n  run1 %+v\n  run2 %+v", s1.Name, s1, *s2)
		}
		if s1.ModelSeconds <= 0 {
			t.Errorf("%s: degenerate model seconds %v", s1.Name, s1.ModelSeconds)
		}
	}
	if gated == 0 {
		t.Fatal("no gated shapes")
	}
	if over := r1.Shape("fig6-friendster-overlapped"); over == nil {
		t.Error("overlapped ablation shape missing")
	} else if over.Gated {
		t.Error("overlapped shape must not be gated (its exposed share is measured, not modeled)")
	} else if over.HiddenCommSeconds <= 0 {
		t.Errorf("overlapped shape hid no communication: %+v", *over)
	}

	if bad := CompareGate(r1, r2, GateTolerance); len(bad) != 0 {
		t.Errorf("self-comparison flagged regressions: %v", bad)
	}
	// A 20% inflation of one gated shape must be flagged.
	inflated := &GateReport{SecPerWorkUnit: r1.SecPerWorkUnit}
	inflated.Shapes = append([]GateResult(nil), r1.Shapes...)
	inflated.Shapes[0].ModelSeconds *= 1.2
	if bad := CompareGate(inflated, r1, GateTolerance); len(bad) != 1 {
		t.Errorf("inflated run: want 1 violation, got %v", bad)
	}
	// A shape missing from the current run must be flagged.
	partial := &GateReport{SecPerWorkUnit: r1.SecPerWorkUnit, Shapes: r1.Shapes[1:]}
	if bad := CompareGate(partial, r1, GateTolerance); len(bad) == 0 {
		t.Error("missing shape not flagged")
	}
	// Mismatched work-unit rates make reports incomparable.
	if bad := CompareGate(&GateReport{SecPerWorkUnit: 2e-9, Shapes: r1.Shapes}, r1, GateTolerance); len(bad) == 0 {
		t.Error("mismatched sec_per_work_unit not flagged")
	}
}

// TestGateMatchesBaseline holds a fresh gate run to the checked-in baseline
// exactly: every gated shape in its modeled comm seconds, work units, bytes
// and model seconds, every overlapped shape in its work units and bytes (its
// exposed share depends on measured compute). A deliberate change to what the
// engine meters regenerates the baseline with `make baseline`.
func TestGateMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("gate runs full shapes; slow in -short mode")
	}
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base GateReport
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	cur, err := RunGate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Shapes) != len(base.Shapes) {
		t.Errorf("the gate runs %d shapes, the baseline holds %d", len(cur.Shapes), len(base.Shapes))
	}
	for _, b := range base.Shapes {
		c := cur.Shape(b.Name)
		if c == nil {
			t.Errorf("%s: in the baseline, missing from the run", b.Name)
			continue
		}
		if c.Gated != b.Gated || c.WorkUnits != b.WorkUnits || c.Bytes != b.Bytes {
			t.Errorf("%s: gated %v, %d work units, %d bytes; baseline gated %v, %d work units, %d bytes",
				b.Name, c.Gated, c.WorkUnits, c.Bytes, b.Gated, b.WorkUnits, b.Bytes)
		}
		if b.Gated && (c.CommSeconds != b.CommSeconds || c.ModelSeconds != b.ModelSeconds) {
			t.Errorf("%s: comm %v s, model %v s; baseline comm %v s, model %v s",
				b.Name, c.CommSeconds, c.ModelSeconds, b.CommSeconds, b.ModelSeconds)
		}
	}
}

// TestTraceShapeMatchesGate holds `spgemm-bench -trace` to its claim that the
// trace renders exactly the schedule the gate numbers come from: for every
// gate shape, the traced run's summary carries RunGate's work units and
// bytes, and a gated (staged) shape's comm seconds too.
func TestTraceShapeMatchesGate(t *testing.T) {
	if testing.Short() {
		t.Skip("gate runs full shapes; slow in -short mode")
	}
	rep, err := RunGate()
	if err != nil {
		t.Fatal(err)
	}
	names := TraceShapeNames()
	if len(names) != len(rep.Shapes) {
		t.Fatalf("%d trace shapes, %d gate shapes", len(names), len(rep.Shapes))
	}
	for _, name := range names {
		g := rep.Shape(name)
		if g == nil {
			t.Errorf("%s: traceable but not in the gate report", name)
			continue
		}
		rec, sum, err := RunTraceShape(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rec.Spans()) == 0 {
			t.Errorf("%s: the trace recorded no spans", name)
		}
		var work, bytes int64
		for _, step := range core.Steps {
			work += sum.Step(step).WorkUnits
			bytes += sum.Step(step).Bytes
		}
		if work != g.WorkUnits || bytes != g.Bytes {
			t.Errorf("%s: traced %d work units, %d bytes; gate %d work units, %d bytes",
				name, work, bytes, g.WorkUnits, g.Bytes)
		}
		if comm := commSeconds(sum); g.Gated && comm != g.CommSeconds {
			t.Errorf("%s: traced comm %v s, gate %v s", name, comm, g.CommSeconds)
		}
	}
	if _, _, err := RunTraceShape("no-such-shape"); err == nil {
		t.Error("unknown trace shape accepted")
	}
}
