package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/distmat"
	"repro/internal/grid"
	"repro/internal/spmat"
)

func init() {
	register(&Experiment{
		ID:    "hypersparse",
		Title: "CSC vs DCSC block storage (fig 6 shape + Rice-kmers shape)",
		Description: "Ablation of the in-memory storage format: dense column pointers (csc) vs " +
			"doubly-compressed (dcsc) vs the per-block auto heuristic, on a fig-6 strong-scaling " +
			"shape (dense-ish blocks, auto stays CSC) and the Rice-kmers AAᵀ shape whose local " +
			"blocks are hypersparse (~2 nnz per occupied column). Outputs and communication " +
			"volume are identical across formats; modeled work units drop with the O(cols) " +
			"per-block metadata, and the memory-constrained batch decision needs fewer batches " +
			"once DCSC footprints are accounted.",
		Run: runHypersparse,
	})
}

// runHypersparse compares the three storage settings at fixed shapes.
func runHypersparse(opts RunOpts) (*Report, error) {
	opts = opts.withDefaults()
	r := &Report{
		ID:    "hypersparse",
		Title: "CSC vs DCSC block storage",
		PaperClaim: "At scale the local blocks SUMMA moves are hypersparse (Rice-kmers: ~2 nnz " +
			"per column), so dense per-column metadata costs O(cols) per block where " +
			"doubly-compressed storage (Buluç & Gilbert's DCSC) costs O(nnz); smaller block " +
			"footprints also mean the symbolic step fits the same multiply in fewer batches.",
	}

	formats := []spmat.Format{spmat.FormatCSC, spmat.FormatDCSC, spmat.FormatAuto}

	type shape struct {
		name    string
		wl      string
		p, l, b int
		// budgetSweep additionally tables the symbolic batch decision at
		// memory budgets anchored on the CSC input-footprint boundary.
		budgetSweep bool
	}
	shapes := []shape{
		{name: "fig6 shape", wl: WLFriendster, p: 64, l: 16, b: 4},
		{name: "kmers shape", wl: WLRiceKmers, p: 64, l: 16, b: 1, budgetSweep: true},
	}
	for _, sh := range shapes {
		wl, err := Workload(sh.wl, opts.Scale)
		if err != nil {
			return nil, err
		}
		a, b := PairFor(wl)

		tb := r.NewTable(fmt.Sprintf("%s: %s (p=%d, l=%d)", sh.name, sh.wl, sh.p, sh.l),
			"format", "batches", "work units", "comm s", "bytes moved", "peak mem MB")
		results := make(map[spmat.Format]outcome)
		for _, f := range formats {
			rr, err := execute(a, b, nil, opts.pins(sh.p, sh.l, core.Options{ForceBatches: sh.b, RunSymbolic: true, Format: f}))
			if err != nil {
				return nil, fmt.Errorf("%s format %v: %w", sh.name, f, err)
			}
			results[f] = rr
			var peak int64
			for _, res := range rr.results {
				if res.PeakMemBytes > peak {
					peak = res.PeakMemBytes
				}
			}
			tb.AddRow(f.String(), fmt.Sprintf("%d", rr.b), fmt.Sprintf("%d", rr.work),
				fmtS(rr.comm), fmt.Sprintf("%d", rr.bytes),
				fmt.Sprintf("%.2f", float64(peak)/1e6))
		}

		csc, dcsc := results[spmat.FormatCSC], results[spmat.FormatDCSC]
		if csc.bytes == dcsc.bytes {
			r.Finding("%s: communication volume is format-independent (%d bytes) — the wire "+
				"encoding depends on occupancy alone", sh.name, csc.bytes)
		} else {
			r.Finding("%s: UNEXPECTED: bytes moved differ between formats (%d vs %d)",
				sh.name, csc.bytes, dcsc.bytes)
		}
		if wc, wd := csc.work, dcsc.work; wd < wc {
			r.Finding("%s: DCSC removes %.1f%% of modeled work units (%d → %d) — the O(cols) "+
				"per-block column scans", sh.name, 100*float64(wc-wd)/float64(wc), wc, wd)
		}
		if sh.budgetSweep {
			// The symbolic batch decision at budgets anchored on the exact
			// CSC input-footprint boundary (below ×1 even the inputs don't
			// fit under flat r·nnz accounting). DCSC footprints leave more
			// per-process headroom, so the same budget needs fewer batches.
			floor := inputFootprintCSC(a, b, sh.p, sh.l)
			bt := r.NewTable(fmt.Sprintf("%s: symbolic batch decision vs memory budget (r·nnz CSC floor = %d B)",
				sh.name, floor), "budget / floor", "b (csc)", "b (dcsc)", "b (auto)")
			var sawFewer bool
			for _, mult := range []float64{1.15, 1.4, 1.9} {
				budget := int64(mult * float64(floor))
				row := []string{fmt.Sprintf("%.2f", mult)}
				bs := make(map[spmat.Format]int)
				for _, f := range formats {
					nb, err := core.SymbolicBatches(a, b, core.RunConfig{
						P: sh.p, L: sh.l, Cost: opts.Machine.Cost(),
						Opts: core.Options{MemBytes: budget, RunSymbolic: true, Format: f, Threads: opts.Threads},
					})
					if err != nil {
						row = append(row, "infeasible")
						bs[f] = -1
						continue
					}
					row = append(row, fmt.Sprintf("%d", nb))
					bs[f] = nb
				}
				bt.AddRow(row...)
				if bs[spmat.FormatDCSC] > 0 && (bs[spmat.FormatCSC] == -1 || bs[spmat.FormatDCSC] < bs[spmat.FormatCSC]) {
					sawFewer = true
				}
			}
			if sawFewer {
				r.Finding("%s: under the same MemBytes the symbolic step picks strictly fewer "+
					"batches with DCSC footprints — less per-batch A re-broadcast volume", sh.name)
			}
		}
	}
	return r, nil
}

// inputFootprintCSC returns the aggregate memory floor p · max over ranks of
// the flat r·nnz input footprint (Ã plus B̃) — the budget below which the
// CSC-accounted symbolic step declares the inputs alone don't fit. Computed
// host-side from the deterministic distributions.
func inputFootprintCSC(a, b *spmat.CSC, p, l int) int64 {
	q, err := grid.SideFor(p, l)
	if err != nil {
		panic(err)
	}
	da := distmat.NewADist(a.Rows, a.Cols, q, l)
	db := distmat.NewBDist(b.Rows, b.Cols, q, l)
	var maxIn int64
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			for k := 0; k < l; k++ {
				in := spmat.BytesPerNonzero * (da.Local(a, i, j, k).NNZ() + db.Local(b, i, j, k).NNZ())
				if in > maxIn {
					maxIn = in
				}
			}
		}
	}
	return int64(p) * maxIn
}
