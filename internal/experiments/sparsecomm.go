package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
)

func init() {
	register(&Experiment{
		ID:    "sparsecomm",
		Title: "Column-subset A-broadcast vs full-block broadcast (fig 6 + Rice-kmers shapes)",
		Description: "Ablation of the sparse-communication knob: the SUMMA A-broadcast either " +
			"ships every receiver the full local block (off, the published-figure default) or " +
			"a column-subset payload restricted to the columns that receiver's multiply " +
			"actually touches (on), with auto deciding per stage from the α–β model. Outputs " +
			"are bit-identical in all three modes; modeled A-Broadcast bytes and comm seconds " +
			"drop on the hypersparse Rice-kmers shape where most broadcast columns go unused.",
		Run: runSparseComm,
	})
}

// runSparseComm compares the three sparse-communication settings at fixed
// shapes: one dense-ish fig-6 shape where subsets rarely pay for the extra
// latency, and the hypersparse Rice-kmers AAᵀ shape where they do.
func runSparseComm(opts RunOpts) (*Report, error) {
	opts = opts.withDefaults()
	r := &Report{
		ID:    "sparsecomm",
		Title: "Column-subset A-broadcast",
		PaperClaim: "At scale most of a broadcast A-block's columns are dead weight for any " +
			"single receiver: only the columns matching the nonzero rows of that receiver's " +
			"B block contribute flops. Restricting the A payload to that column subset trades " +
			"one broadcast for q−1 point-to-point sends, which wins exactly when the α–β " +
			"model says the volume saved outweighs the extra latency — hypersparse inputs, " +
			"never the dense shapes.",
	}

	modes := []mpi.SparseMode{mpi.SparseOff, mpi.SparseAuto, mpi.SparseOn}

	type shape struct {
		name    string
		wl      string
		p, l, b int
	}
	shapes := []shape{
		{name: "fig6 shape", wl: WLFriendster, p: 64, l: 16, b: 4},
		{name: "kmers shape", wl: WLRiceKmers, p: 64, l: 16, b: 2},
	}
	for _, sh := range shapes {
		wl, err := Workload(sh.wl, opts.Scale)
		if err != nil {
			return nil, err
		}
		a, b := PairFor(wl)

		tb := r.NewTable(fmt.Sprintf("%s: %s (p=%d, l=%d, b=%d)", sh.name, sh.wl, sh.p, sh.l, sh.b),
			"sparse-comm", "A-bcast bytes", "A-bcast msgs", "A-bcast comm s", "total bytes", "total comm s")
		results := make(map[mpi.SparseMode]outcome)
		for _, m := range modes {
			rr, err := execute(a, b, nil, opts.pins(sh.p, sh.l, core.Options{ForceBatches: sh.b, RunSymbolic: true, SparseComm: m}))
			if err != nil {
				return nil, fmt.Errorf("%s sparse-comm %v: %w", sh.name, m, err)
			}
			results[m] = rr
			ab := rr.summary.Step(core.StepABcast)
			tb.AddRow(m.String(), fmt.Sprintf("%d", ab.Bytes), fmt.Sprintf("%d", ab.Messages),
				fmtS(ab.CommSeconds), fmt.Sprintf("%d", rr.bytes), fmtS(rr.comm))
		}

		abOf := func(m mpi.SparseMode) mpi.StepStats {
			return results[m].summary.Step(core.StepABcast)
		}
		off, auto := abOf(mpi.SparseOff), abOf(mpi.SparseAuto)
		switch {
		case auto.Bytes < off.Bytes:
			r.Finding("%s: auto cuts A-Broadcast volume %.1f%% (%d → %d bytes) and comm time "+
				"%.1f%% — the subset payloads win under the α–β model", sh.name,
				100*float64(off.Bytes-auto.Bytes)/float64(off.Bytes), off.Bytes, auto.Bytes,
				100*(off.CommSeconds-auto.CommSeconds)/off.CommSeconds)
		case auto.Bytes == off.Bytes:
			r.Finding("%s: auto keeps the full-block broadcast everywhere — subset sends never "+
				"beat the tree broadcast at this density", sh.name)
		default:
			r.Finding("%s: UNEXPECTED: auto moved more A-Broadcast bytes than off (%d vs %d)",
				sh.name, auto.Bytes, off.Bytes)
		}
		if on := abOf(mpi.SparseOn); on.CommSeconds > auto.CommSeconds*(1+1e-12) {
			r.Finding("%s: forcing subsets everywhere (on) costs %.1f%% more A-Broadcast comm "+
				"time than auto — the per-stage α–β decision matters", sh.name,
				100*(on.CommSeconds-auto.CommSeconds)/auto.CommSeconds)
		}
	}
	return r, nil
}
