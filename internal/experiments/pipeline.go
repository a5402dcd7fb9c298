package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
)

func init() {
	register(&Experiment{
		ID:    "pipeline",
		Title: "Staged vs fully-overlapped schedule (fig 6/8 shapes)",
		Description: "Per-step exposed and hidden communication for the paper's staged schedule " +
			"vs the fully-overlapped one (broadcast prefetch within and across batches, fiber " +
			"AllToAll hidden behind Merge-Layer) on a fig-6 strong-scaling shape and the fig-8 " +
			"symbolic shape.",
		Run: runPipeline,
	})
}

// overlapSteps are the communication steps the overlapped schedule can hide,
// in presentation order.
var overlapSteps = []string{core.StepSymbolic, core.StepABcast, core.StepBBcast, core.StepAllToAll}

// runPipeline compares the two schedules at fixed shapes. The overlapped
// schedule is an ablation of this reproduction (the paper's schedule is
// strictly staged), so the claim restates what the model predicts: outputs
// identical, bytes identical, exposed communication strictly smaller, the
// difference accounted for in the *-Hidden categories.
func runPipeline(opts RunOpts) (*Report, error) {
	opts = opts.withDefaults()
	r := &Report{
		ID:    "pipeline",
		Title: "Staged vs fully-overlapped schedule",
		PaperClaim: "The paper's schedule is staged; SpComm3D-style overlap predicts the " +
			"broadcasts and the fiber AllToAll largely hide behind local multiply and merge, " +
			"shrinking exposed communication without changing volume or output.",
	}

	type shape struct {
		name     string
		wl       string
		p, l, b  int
		symbolic bool
	}
	// The fig-6 strong-scaling shape (l=16, multi-batch, symbolic metered)
	// exercises every overlap: within-batch and cross-batch broadcast
	// prefetch plus the fiber exchange. The fig-8 shape isolates the
	// symbolic pass, whose broadcasts dominate.
	shapes := []shape{
		{name: "fig6 shape", wl: WLFriendster, p: 64, l: 16, b: 4, symbolic: true},
		{name: "fig8 shape", wl: WLIsolatesSmall, p: 64, l: 16, b: 1, symbolic: true},
	}
	for _, sh := range shapes {
		a, err := Workload(sh.wl, opts.Scale)
		if err != nil {
			return nil, err
		}
		run := func(pipeline bool) (outcome, error) {
			return execute(a, a, nil, opts.pins(sh.p, sh.l, core.Options{ForceBatches: sh.b, RunSymbolic: sh.symbolic, Pipeline: pipeline}))
		}
		staged, err := run(false)
		if err != nil {
			return nil, err
		}
		overlapped, err := run(true)
		if err != nil {
			return nil, err
		}

		tb := r.NewTable(fmt.Sprintf("%s: %s (A², p=%d, l=%d, b=%d)", sh.name, sh.wl, sh.p, sh.l, sh.b),
			"step", "staged comm s", "overlapped comm s", "hidden s", "hidden share")
		var hidTotal, hidBcast, hidFiber float64
		for _, step := range overlapSteps {
			ss := staged.summary.Step(step).CommSeconds
			os := overlapped.summary.Step(step).CommSeconds
			hid := overlapped.summary.Step(core.HiddenFor(step)).HiddenSeconds
			share := 0.0
			if os+hid > 0 {
				share = hid / (os + hid)
			}
			tb.AddRow(step, fmtS(ss), fmtS(os), fmtS(hid), fmt.Sprintf("%.0f%%", share*100))
			hidTotal += hid
			switch step {
			case core.StepABcast, core.StepBBcast:
				hidBcast += hid
			case core.StepAllToAll:
				hidFiber += hid
			}
		}
		sTot, oTot := staged.comm, overlapped.comm
		tb.AddRow("total", fmtS(sTot), fmtS(oTot), fmtS(hidTotal), "")
		tb.Notes = append(tb.Notes,
			"hidden s ran concurrently with measured compute and is excluded from critical-path totals")

		if oTot < sTot {
			r.Finding("%s (%s): exposed communication fell %.1fx under the overlapped schedule (%s → %s s)",
				sh.name, sh.wl, sTot/maxf(oTot, 1e-12), fmtS(sTot), fmtS(oTot))
		}
		r.Finding("%s (%s): hidden seconds — broadcasts %s, fiber AllToAll %s (both must be nonzero for full overlap)",
			sh.name, sh.wl, fmtS(hidBcast), fmtS(hidFiber))
	}
	return r, nil
}

// hiddenSeconds sums the hidden categories of a summary: the overlap the
// pipelined schedule bought, reported by RunGate and RunAutotune.
func hiddenSeconds(s *mpi.Summary) float64 {
	var t float64
	for _, cat := range core.HiddenSteps {
		t += s.Step(cat).HiddenSeconds
	}
	return t
}
