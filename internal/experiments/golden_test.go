package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/planner"
)

var update = flag.Bool("update", false, "rewrite testdata/runs/*.golden and testdata/reports/*.golden from this run instead of comparing against them")

// formatRun renders one run as a line of space-separated name=value fields:
// the pins handed to core, whether the output was discarded, the batch count
// the run executed, every step's bytes, messages and work units,
// and — for staged runs only — the modeled communication seconds (a
// pipelined run's exposed share depends on measured compute). Every field is
// deterministic, so two runs of the same code print the same line on any
// host.
func formatRun(pn pins, batches int, s *mpi.Summary) string {
	o := pn.opts
	l, forceb, pipeline, algo, c := pn.l, o.ForceBatches, o.Pipeline, planner.AlgoSUMMA, 0
	if d := pn.dense; d != nil {
		// A sparse×dense run's pins are its config, in the sparse runs'
		// layout: a 1.5D config's unset L is recorded as l=1.
		l, forceb, pipeline, algo, c = max(d.L, 1), d.B, d.Pipeline, d.Algo, d.C
	}
	f := []string{
		fmt.Sprintf("p=%d", pn.p),
		fmt.Sprintf("l=%d", l),
		fmt.Sprintf("mem=%d", o.MemBytes),
		fmt.Sprintf("forceb=%d", forceb),
		fmt.Sprintf("kernel=%v", o.Kernel),
		fmt.Sprintf("merger=%v", o.Merger),
		fmt.Sprintf("format=%v", o.Format),
		fmt.Sprintf("sparse=%v", o.SparseComm),
		fmt.Sprintf("channels=%d", o.Channels),
		fmt.Sprintf("symbolic=%v", o.RunSymbolic),
		fmt.Sprintf("pipeline=%v", pipeline),
		fmt.Sprintf("algo=%v", algo),
		fmt.Sprintf("c=%d", c),
		fmt.Sprintf("discard=%v", pn.discard),
		fmt.Sprintf("b=%d", batches),
	}
	for _, step := range core.Steps {
		st := s.Step(step)
		f = append(f,
			fmt.Sprintf("%s.bytes=%d", step, st.Bytes),
			fmt.Sprintf("%s.msgs=%d", step, st.Messages),
			fmt.Sprintf("%s.work=%d", step, st.WorkUnits))
	}
	if !pipeline {
		f = append(f, "comm="+strconv.FormatFloat(commSeconds(s), 'g', -1, 64))
	}
	return strings.Join(f, " ")
}

// runRecorded runs e under opts and returns, beside its report, the record
// of every multiply it made (formatRun). Each run's measured compute seconds
// are replaced, before the experiment reads them, by its work units at the
// gate's rate scaled by the run's machine, so the report's text is the same
// on every host.
func runRecorded(e *Experiment, opts RunOpts) (*Report, []string, error) {
	var runs []string
	recordRun = func(pn pins, batches int, s *mpi.Summary) {
		runs = append(runs, formatRun(pn, batches, s))
		for _, st := range s.Steps {
			st.ComputeSeconds = float64(st.WorkUnits) * GateSecPerWorkUnit * pn.machine.ComputeScale
		}
	}
	defer func() { recordRun = nil }()
	rep, err := e.Run(opts)
	return rep, runs, err
}

// checkRunRecords holds one experiment's run records to
// testdata/runs/<id>.golden, or rewrites the file under -update. An
// experiment that makes no run through the run helpers has no file. A
// mismatch names the run (its 1-based line) and the first field that moved.
func checkRunRecords(t *testing.T, id string, runs []string) {
	t.Helper()
	path := filepath.Join("testdata", "runs", id+".golden")
	if *update {
		if len(runs) == 0 {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			return
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(runs, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if len(runs) == 0 {
		if err == nil {
			t.Errorf("%s made no recorded run, but %s exists (regenerate with -update)", id, path)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v (regenerate with -update)", id, err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(runs) != len(want) {
		t.Errorf("%s: %d runs recorded, %s holds %d", id, len(runs), path, len(want))
	}
	for i := 0; i < len(runs) && i < len(want); i++ {
		if runs[i] == want[i] {
			continue
		}
		got, exp := strings.Fields(runs[i]), strings.Fields(want[i])
		field := fmt.Sprintf("field count %d, golden %d", len(got), len(exp))
		for j := 0; j < len(got) && j < len(exp); j++ {
			if got[j] != exp[j] {
				field = fmt.Sprintf("%s, golden %s", got[j], exp[j])
				break
			}
		}
		t.Errorf("%s run %d: %s", id, i+1, field)
	}
}

// maskedReports print numbers no run pins: fig3's MCL iterations (apps/mcl
// meters them), pipeline's hidden and exposed shares (overlap with measured
// compute) and service's daemon timings and queueing. Their goldens hold the
// text with every number masked and runs of spaces and dashes folded, so
// column widths may move too.
var maskedReports = map[string]bool{"fig3": true, "pipeline": true, "service": true}

var (
	numberRE = regexp.MustCompile(`[0-9][0-9.e+-]*`)
	padRE    = regexp.MustCompile(` {2,}|-{3,}`)
)

// maskNumbers replaces every number in text by # and folds its padding.
func maskNumbers(text string) string {
	return padRE.ReplaceAllStringFunc(numberRE.ReplaceAllString(text, "#"), func(pad string) string {
		return pad[:2]
	})
}

// checkReport holds one experiment's rendered report to
// testdata/reports/<id>.golden, or rewrites the file under -update; a
// maskedReports entry is compared masked. A mismatch names the first line
// that differs.
func checkReport(t *testing.T, id string, rep *Report) {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatalf("%s: render: %v", id, err)
	}
	got := buf.String()
	if maskedReports[id] {
		got = maskNumbers(got)
	}
	path := filepath.Join("testdata", "reports", id+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (regenerate with -update)", id, err)
	}
	if got == string(data) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(data), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s report line %d:\n got    %q\n golden %q", id, i+1, g, w)
			return
		}
	}
}

// TestThreadsMoveNoRecord holds RunOpts.Threads, the one run-wide knob, to
// being a host setting: with two workers per rank, a broadcast-bound figure
// and the symbolic-step figure make exactly the runs their records hold.
func TestThreadsMoveNoRecord(t *testing.T) {
	if testing.Short() || *update {
		t.Skip("experiments are slow in -short mode; -update rewrites from the serial runs")
	}
	for _, id := range []string{"fig5", "fig8"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		opts := tinyOpts()
		opts.Threads = 2
		_, runs, err := runRecorded(e, opts)
		if err != nil {
			t.Fatalf("%s with 2 threads: %v", id, err)
		}
		checkRunRecords(t, id, runs)
	}
}
