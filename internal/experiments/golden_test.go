package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
)

var update = flag.Bool("update", false, "rewrite testdata/runs/*.golden from this run instead of comparing against them")

// formatRun renders one run as a line of space-separated name=value fields:
// the pins handed to core, whether the output was discarded, the batch count
// the run executed (0 for a densified SUMMA sparse×dense run, whose batch
// count core does not return), every step's bytes, messages and work units,
// and — for staged runs only — the modeled communication seconds (a
// pipelined run's exposed share depends on measured compute). Every field is
// deterministic, so two runs of the same code print the same line on any
// host.
func formatRun(rc core.RunConfig, discard bool, batches int, s *mpi.Summary) string {
	o := rc.Opts
	f := []string{
		fmt.Sprintf("p=%d", rc.P),
		fmt.Sprintf("l=%d", rc.L),
		fmt.Sprintf("mem=%d", o.MemBytes),
		fmt.Sprintf("forceb=%d", o.ForceBatches),
		fmt.Sprintf("kernel=%v", o.Kernel),
		fmt.Sprintf("merger=%v", o.Merger),
		fmt.Sprintf("format=%v", o.Format),
		fmt.Sprintf("sparse=%v", o.SparseComm),
		fmt.Sprintf("channels=%d", o.Channels),
		fmt.Sprintf("symbolic=%v", o.RunSymbolic),
		fmt.Sprintf("pipeline=%v", o.Pipeline),
		fmt.Sprintf("algo=%v", o.Algo),
		fmt.Sprintf("c=%d", o.Replication),
		fmt.Sprintf("discard=%v", discard),
		fmt.Sprintf("b=%d", batches),
	}
	for _, step := range core.Steps {
		st := s.Step(step)
		f = append(f,
			fmt.Sprintf("%s.bytes=%d", step, st.Bytes),
			fmt.Sprintf("%s.msgs=%d", step, st.Messages),
			fmt.Sprintf("%s.work=%d", step, st.WorkUnits))
	}
	if !o.Pipeline {
		f = append(f, "comm="+strconv.FormatFloat(commSeconds(s), 'g', -1, 64))
	}
	return strings.Join(f, " ")
}

// runRecorded runs e under opts and returns, beside its report, the record
// of every multiply it made (formatRun).
func runRecorded(e *Experiment, opts RunOpts) (*Report, []string, error) {
	var runs []string
	recordRun = func(rc core.RunConfig, discard bool, batches int, s *mpi.Summary) {
		runs = append(runs, formatRun(rc, discard, batches, s))
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
