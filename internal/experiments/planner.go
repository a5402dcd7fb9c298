package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/planner"
	"repro/internal/service"
	"repro/internal/spmat"
)

// This file scores the analytical planner against ground truth: an
// exhaustive oracle sweep over l × b × format × pipeline × sparse-comm on
// the perf-gate workloads — plus, for the sparse×dense shape, the algorithm
// axis (densified SUMMA vs the 1.5D ColA/InnerABC schedules over every
// replication factor) — under the same deterministic objective the CI
// gate uses
// (per-step max-over-ranks α–β communication plus total work units at the
// pinned rate). Pipelined points are scored by applying the shared
// overlap-ledger model (planner.Overlap) to the staged run's deterministic
// step costs — the measured hidden share depends on wall-clock compute and
// would make the comparison machine-dependent.

// PlanGateTolerance is how far (relative) the planner's pick may sit above
// the oracle sweep's best modeled critical path before the planner gate
// fails.
const PlanGateTolerance = 0.10

// planShape pins one planner-gate point: a gate workload and the batch
// count whose memory regime the budget reproduces (wantB = 1 means
// unconstrained).
type planShape struct {
	name  string
	wl    string
	p     int
	wantB int
}

// planShapes are the fig-6/fig-8 and hyper-kmers gate workloads.
var planShapes = []planShape{
	{name: "fig6-friendster", wl: WLFriendster, p: 64, wantB: 4},
	{name: "fig8-symbolic", wl: WLIsolatesSmall, p: 64, wantB: 1},
	{name: "hyper-kmers", wl: WLRiceKmers, p: 64, wantB: 2},
}

// densePlanShapes extend the planner gate along the sparse×dense algorithm
// axis: the spmm gate workload multiplied by a tall-skinny feature panel,
// where the planner must choose the algorithm family (densified SUMMA vs the
// 1.5D schedules) on top of its parameters. Staged-only on both sides — the
// oracle scores real runs under the deterministic gate objective, which
// pipelined schedules would make machine-dependent.
type densePlanShape struct {
	name string
	p    int
	d    int32
}

var densePlanShapes = []densePlanShape{
	{name: "spmm-tallskinny", p: 16, d: 8},
}

// oracleEntry is one swept configuration's deterministic modeled outcome.
type oracleEntry struct {
	Cfg          planner.Config
	CommSeconds  float64
	WorkUnits    int64
	ModelSeconds float64
	// Feasible is false when the configuration's batch count is below what
	// the real distributed symbolic decision (Alg 3) requires under the
	// budget.
	Feasible bool
	// Steps carries the per-step (comm seconds, work units) of the staged
	// run this entry derives from, keyed by step name.
	Steps map[string]stepPair
}

// stepPair bundles one step's deterministic cost pair.
type stepPair struct {
	Comm float64
	Work int64
}

// planOracle exhaustively sweeps l × b × format × sparse-comm with real
// staged runs and derives each point's pipelined twin through the shared
// overlap model.
// Feasibility under mem comes from the real symbolic decision per
// (l, format), and that decision's own b joins the sweep — the smallest
// feasible batch count is also the best feasible one (batches only add
// A-broadcast volume), so the true optimum is always a swept point.
func planOracle(a, b *spmat.CSC, p int, machine costmodel.Machine, mem int64, bSet []int) ([]oracleEntry, error) {
	allreduce := 4 * machine.CommScale * machine.Cost().AllreduceCost(p, 8)
	var out []oracleEntry
	for _, l := range planner.LayersFor(p) {
		q, err := grid.SideFor(p, l)
		if err != nil {
			return nil, err
		}
		for _, f := range []spmat.Format{spmat.FormatCSC, spmat.FormatDCSC, spmat.FormatAuto} {
			// The real batch decision under the budget: the floor every
			// feasible b must meet.
			minB := 1
			feasibleAtAll := true
			if mem > 0 {
				nb, err := core.SymbolicBatches(a, b, core.RunConfig{
					P: p, L: l, Cost: machine.Cost(),
					Opts: core.Options{MemBytes: mem, RunSymbolic: true, Format: f},
				})
				if err != nil {
					feasibleAtAll = false
				} else {
					minB = nb
				}
			}
			localBSet := bSet
			if feasibleAtAll && minB > 1 && !containsInt(bSet, minB) {
				localBSet = append(append([]int(nil), bSet...), minB)
				sort.Ints(localBSet)
			}
			for _, bv := range localBSet {
				for _, sm := range []mpi.SparseMode{mpi.SparseOff, mpi.SparseAuto} {
					rr := runMul(a, b, p, l, machine, 0, bv,
						core.Options{RunSymbolic: true, Format: f, SparseComm: sm}, false)
					if rr.Err != nil {
						return nil, fmt.Errorf("oracle l=%d b=%d %v %v: %w", l, bv, f, sm, rr.Err)
					}
					steps := make(map[string]stepPair, len(core.Steps))
					var work int64
					var comm float64
					for _, step := range core.Steps {
						st := rr.Summary.Step(step)
						steps[step] = stepPair{Comm: st.CommSeconds, Work: st.WorkUnits}
						work += st.WorkUnits
						comm += st.CommSeconds
					}
					feasible := feasibleAtAll && bv >= minB
					staged := oracleEntry{
						Cfg:          planner.Config{L: l, B: bv, Format: f, SparseComm: sm},
						CommSeconds:  comm,
						WorkUnits:    work,
						ModelSeconds: comm + float64(work)*GateSecPerWorkUnit,
						Feasible:     feasible,
						Steps:        steps,
					}
					out = append(out, staged,
						pipelinedEntry(staged, p, q, allreduce, 1),
						pipelinedEntry(staged, p, q, allreduce, 2))
				}
			}
		}
	}
	return out, nil
}

// denseOracleEntry is one swept sparse×dense configuration's outcome.
type denseOracleEntry struct {
	Cfg          planner.DenseConfig
	CommSeconds  float64
	WorkUnits    int64
	ModelSeconds float64
}

// denseOracle exhaustively sweeps the sparse×dense configuration space with
// real staged runs — SUMMA over l × b plus both 1.5D schedules over c × b —
// scored under the gate objective. Every point is feasible (the dense shape
// runs unconstrained, the b = 1 memory regime).
func denseOracle(a *spmat.CSC, panel *spmat.DenseMat, p int, machine costmodel.Machine, bSet []int) ([]denseOracleEntry, error) {
	type armPoint struct {
		algo core.Algo
		name string
		l, c int
	}
	var points []armPoint
	for _, l := range planner.LayersFor(p) {
		points = append(points, armPoint{algo: core.AlgoSUMMA, name: planner.DenseAlgoSUMMA, l: l})
	}
	for _, c := range planner.ReplicationsFor(p) {
		points = append(points,
			armPoint{algo: core.AlgoColA, name: planner.DenseAlgoColA, l: 1, c: c},
			armPoint{algo: core.AlgoInnerABC, name: planner.DenseAlgoInnerABC, l: 1, c: c})
	}
	var out []denseOracleEntry
	for _, pt := range points {
		for _, bv := range bSet {
			rr := runSpMM(a, panel, p, pt.l, machine, pt.algo, pt.c, bv, core.Options{})
			if rr.Err != nil {
				return nil, fmt.Errorf("dense oracle %s l=%d c=%d b=%d: %w", pt.name, pt.l, pt.c, bv, rr.Err)
			}
			var work int64
			var comm float64
			for _, step := range core.Steps {
				st := rr.Summary.Step(step)
				work += st.WorkUnits
				comm += st.CommSeconds
			}
			cfg := planner.DenseConfig{Algo: pt.name, B: bv}
			if pt.algo == core.AlgoSUMMA {
				cfg.L = pt.l
			} else {
				cfg.C = pt.c
			}
			out = append(out, denseOracleEntry{
				Cfg:          cfg,
				CommSeconds:  comm,
				WorkUnits:    work,
				ModelSeconds: comm + float64(work)*GateSecPerWorkUnit,
			})
		}
	}
	return out, nil
}

// denseOracleBest returns the lowest-scoring entry, or nil.
func denseOracleBest(entries []denseOracleEntry) *denseOracleEntry {
	var best *denseOracleEntry
	for i := range entries {
		if best == nil || entries[i].ModelSeconds < best.ModelSeconds {
			best = &entries[i]
		}
	}
	return best
}

// denseOracleFind returns the entry matching cfg, or nil.
func denseOracleFind(entries []denseOracleEntry, cfg planner.DenseConfig) *denseOracleEntry {
	for i := range entries {
		if entries[i].Cfg == cfg {
			return &entries[i]
		}
	}
	return nil
}

// densePlanFor runs the sparse×dense planner on a prepared dense shape,
// staged-only, mirroring planFor.
func densePlanFor(a *spmat.CSC, d int32, p int, machine costmodel.Machine) (*planner.DensePlan, error) {
	return planner.NewDense(a, d, planner.DenseInput{P: p, Machine: machine, Pipelines: []bool{false}})
}

// containsInt reports whether xs contains v.
func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// pipelinedEntry derives the pipelined twin of a staged oracle point under k
// overlap channels by applying the shared overlap-ledger model to its
// deterministic step costs, with per-rank compute valued at the pinned work
// rate. allreduce is the symbolic step's blocking-Allreduce share, excluded
// from the hideable broadcast cost exactly as the planner's own transform
// excludes it. k ≤ 1 keeps Config.Channels at the zero value so the swept
// space matches the planner's spellings exactly.
func pipelinedEntry(staged oracleEntry, p, q int, allreduce float64, k int) oracleEntry {
	perRank := func(step string) float64 {
		return float64(staged.Steps[step].Work) * GateSecPerWorkUnit / float64(p)
	}
	symBcast := staged.Steps[core.StepSymbolic].Comm - allreduce
	if symBcast < 0 {
		symBcast = 0
	}
	o := planner.Overlap{
		Q: q, B: staged.Cfg.B, L: staged.Cfg.L, K: k,
		Symbolic:          true,
		CommSymbolicBcast: symBcast,
		CommABcast:        staged.Steps[core.StepABcast].Comm,
		CommBBcast:        staged.Steps[core.StepBBcast].Comm,
		CommFiber:         staged.Steps[core.StepAllToAll].Comm,
		CompSymbolic:      perRank(core.StepSymbolic),
		CompMultiply:      perRank(core.StepLocalMult),
		CompMergeLayer:    perRank(core.StepMergeLayer),
	}
	hSym, hA, hB, hFiber := o.Hidden()
	hidden := hSym + hA + hB + hFiber
	out := staged
	out.Cfg.Pipeline = true
	if k >= 2 {
		out.Cfg.Channels = k
	}
	out.CommSeconds = staged.CommSeconds - hidden
	out.ModelSeconds = out.CommSeconds + float64(out.WorkUnits)*GateSecPerWorkUnit
	return out
}

// oracleBest returns the best feasible entry, or nil.
func oracleBest(entries []oracleEntry) *oracleEntry {
	var best *oracleEntry
	for i := range entries {
		e := &entries[i]
		if !e.Feasible {
			continue
		}
		if best == nil || e.ModelSeconds < best.ModelSeconds {
			best = e
		}
	}
	return best
}

// oracleFind returns the entry matching cfg, or nil.
func oracleFind(entries []oracleEntry, cfg planner.Config) *oracleEntry {
	for i := range entries {
		if entries[i].Cfg == cfg {
			return &entries[i]
		}
	}
	return nil
}

// planShapeInputs prepares one planner-gate shape: operands, machine, and
// the memory budget reproducing the shape's batch regime.
func planShapeInputs(sh planShape, sc Scale) (a, b *spmat.CSC, machine costmodel.Machine, mem int64, err error) {
	wl, err := Workload(sh.wl, sc)
	if err != nil {
		return nil, nil, costmodel.Machine{}, 0, err
	}
	a, b = PairFor(wl)
	machine = costmodel.CoriKNL().ScaledBeta(commAmplification(sc))
	if sh.wantB > 1 {
		mem = memoryForBatches(a, b, sh.p, 16, sh.wantB, 24)
	}
	return a, b, machine, mem, nil
}

// planFor runs the planner on a prepared shape. Its work-unit rate is the
// gate's (GateSecPerWorkUnit is planner.DefaultSecPerWork), so planner scores
// and oracle scores share the objective.
func planFor(a, b *spmat.CSC, p int, machine costmodel.Machine, mem int64) (*planner.Plan, error) {
	return planner.New(a, b, planGateInput(p, machine, mem))
}

// planGateInput is the runtime autotune's planner input with the symbolic
// pass run, as in every oracle run — shared with the cached-plan pass so its
// cache keys describe the same decision.
func planGateInput(p int, machine costmodel.Machine, mem int64) planner.Input {
	return core.PlanInput(core.RunConfig{P: p, Opts: core.Options{MemBytes: mem, RunSymbolic: true}}, machine)
}

// oracleBSet is the batch sweep of the oracle, always including the
// planner's induced pick so the pick can be scored.
func oracleBSet(pick int) []int {
	set := map[int]bool{1: true, 2: true, 4: true, 8: true}
	if pick > 0 {
		set[pick] = true
	}
	var out []int
	for b := range set {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// PlanGate scores the planner's pick against the exhaustive oracle on every
// planner-gate shape and returns one message per violation (empty = gate
// passes): a missing or infeasible pick, or a pick whose modeled critical
// path exceeds the oracle's best by more than tol.
func PlanGate(sc Scale, tol float64) ([]string, error) {
	var bad []string
	planCache := service.NewPlanCache()
	for _, sh := range planShapes {
		a, b, machine, mem, err := planShapeInputs(sh, sc)
		if err != nil {
			return nil, err
		}
		pl, err := planFor(a, b, sh.p, machine, mem)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		pick := pl.Best()
		if pick == nil {
			bad = append(bad, fmt.Sprintf("%s: planner found no feasible configuration", sh.name))
			continue
		}
		entries, err := planOracle(a, b, sh.p, machine, mem, oracleBSet(pick.B))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		best := oracleBest(entries)
		if best == nil {
			bad = append(bad, fmt.Sprintf("%s: oracle found no feasible configuration", sh.name))
			continue
		}
		got := oracleFind(entries, pick.Config)
		if got == nil {
			bad = append(bad, fmt.Sprintf("%s: pick %s not covered by the oracle sweep", sh.name, pick.Config))
			continue
		}
		if !got.Feasible {
			bad = append(bad, fmt.Sprintf("%s: pick %s is infeasible under the budget (real symbolic decision needs more batches)",
				sh.name, pick.Config))
			continue
		}
		if limit := best.ModelSeconds * (1 + tol); got.ModelSeconds > limit {
			bad = append(bad, fmt.Sprintf("%s: pick %s models %.6g s, oracle best %s models %.6g s — %.1f%% above (tolerance %.0f%%)",
				sh.name, pick.Config, got.ModelSeconds, best.Cfg, best.ModelSeconds,
				100*(got.ModelSeconds/best.ModelSeconds-1), 100*tol))
		}

		// Cached-plan pass: the same decision served through the service's
		// plan cache must miss exactly once, hit on the replan, and return
		// the identical pick — so the cached path inherits the oracle bound
		// just established for the fresh one.
		key := planner.CacheKey(spmat.FingerprintOf(a).Key(), spmat.FingerprintOf(b).Key(),
			planGateInput(sh.p, machine, mem))
		fresh := pick.Choice()
		for pass, wantHit := range []bool{false, true} {
			cached, hit, err := planCache.PlanThrough(key, func() (planner.Choice, error) { return fresh, nil })
			if err != nil {
				return nil, err
			}
			if hit != wantHit {
				bad = append(bad, fmt.Sprintf("%s: cached-plan pass %d: cache hit=%v, want %v", sh.name, pass+1, hit, wantHit))
			}
			if cached != fresh {
				bad = append(bad, fmt.Sprintf("%s: cached plan %s differs from fresh pick %s", sh.name, cached, fresh))
			}
		}
	}
	for _, sh := range densePlanShapes {
		a := SpMMGraph(sc)
		panel := PanelFor(a, sh.d)
		machine := costmodel.CoriKNL().ScaledBeta(commAmplification(sc))
		pl, err := densePlanFor(a, sh.d, sh.p, machine)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		pick := pl.Best()
		if pick == nil {
			bad = append(bad, fmt.Sprintf("%s: planner found no feasible configuration", sh.name))
			continue
		}
		entries, err := denseOracle(a, panel, sh.p, machine, oracleBSet(pick.B))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		best := denseOracleBest(entries)
		got := denseOracleFind(entries, pick.DenseConfig)
		if got == nil {
			bad = append(bad, fmt.Sprintf("%s: pick %s not covered by the oracle sweep", sh.name, pick.DenseConfig))
			continue
		}
		if limit := best.ModelSeconds * (1 + tol); got.ModelSeconds > limit {
			bad = append(bad, fmt.Sprintf("%s: pick %s models %.6g s, oracle best %s models %.6g s — %.1f%% above (tolerance %.0f%%)",
				sh.name, pick.DenseConfig, got.ModelSeconds, best.Cfg, best.ModelSeconds,
				100*(got.ModelSeconds/best.ModelSeconds-1), 100*tol))
		}
	}
	return bad, nil
}

func init() {
	register(&Experiment{
		ID:    "planner",
		Title: "analytical autotuner vs exhaustive oracle sweep",
		Description: "Scores the planner's analytically chosen configuration (layers, batches, " +
			"format, pipeline, sparse-comm) against an exhaustive " +
			"l × b × format × pipeline × sparse-comm sweep on the perf-gate workloads, under " +
			"the gate's deterministic modeled objective. The sparse×dense tall-skinny shape " +
			"adds the algorithm axis: SUMMA vs the 1.5D schedules across replication factors. " +
			"Also shows the pick's predicted per-step breakdown next to the measured one.",
		Run: runPlannerExperiment,
	})
}

// runPlannerExperiment renders the planner-vs-oracle comparison.
func runPlannerExperiment(opts RunOpts) (*Report, error) {
	r := &Report{
		ID:    "planner",
		Title: "analytical autotuner vs exhaustive oracle sweep",
		PaperClaim: "The paper picks l and b by sweeping (Figs 4, 6, 8); an α–β cost model over " +
			"cheap input statistics should be able to pick them analytically (cf. Azad et al.'s " +
			"multi-level 3D SpGEMM model), within a few percent of the swept optimum.",
	}
	for _, sh := range planShapes {
		a, b, machine, mem, err := planShapeInputs(sh, opts.Scale)
		if err != nil {
			return nil, err
		}
		pl, err := planFor(a, b, sh.p, machine, mem)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		pick := pl.Best()
		if pick == nil {
			return nil, fmt.Errorf("%s: planner found no feasible configuration", sh.name)
		}
		entries, err := planOracle(a, b, sh.p, machine, mem, oracleBSet(pick.B))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		best := oracleBest(entries)
		got := oracleFind(entries, pick.Config)
		if best == nil || got == nil {
			return nil, fmt.Errorf("%s: oracle sweep cannot score the pick", sh.name)
		}

		// Leaderboard: the oracle's feasible points, best first.
		feasible := make([]oracleEntry, 0, len(entries))
		for _, e := range entries {
			if e.Feasible {
				feasible = append(feasible, e)
			}
		}
		sort.Slice(feasible, func(x, y int) bool { return feasible[x].ModelSeconds < feasible[y].ModelSeconds })
		tb := r.NewTable(fmt.Sprintf("%s (p=%d, M=%s): oracle top 5 vs planner pick", sh.name, sh.p, fmtMem(mem)),
			"rank", "config", "model s", "comm s", "work units", "planner pick")
		show := len(feasible)
		if show > 5 {
			show = 5
		}
		for i := 0; i < show; i++ {
			e := feasible[i]
			mark := ""
			if e.Cfg == pick.Config {
				mark = "◀ pick"
			}
			tb.AddRow(fmt.Sprintf("%d", i+1), e.Cfg.String(), fmtS(e.ModelSeconds),
				fmtS(e.CommSeconds), fmt.Sprintf("%d", e.WorkUnits), mark)
		}
		gap := 100 * (got.ModelSeconds/best.ModelSeconds - 1)
		tb.Notes = append(tb.Notes, fmt.Sprintf(
			"planner pick %s: modeled %.6g s, %.2f%% above oracle best %s (%d configurations swept)",
			pick.Config, got.ModelSeconds, gap, best.Cfg, len(entries)))

		// Predicted vs measured per-step breakdown of the pick's staged
		// twin: the oracle's per-step measurements come from the staged run
		// (the pipelined exposure split depends on wall-clock compute), so
		// the predictor-quality audit compares staged against staged.
		stagedCfg := pick.Config
		stagedCfg.Pipeline = false
		pred, err := pl.Evaluate(stagedCfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		pb := r.NewTable(fmt.Sprintf("%s: pick %s (staged twin) — predicted vs measured per step", sh.name, pick.Config),
			"step", "comm s (pred)", "comm s (meas)", "work (pred)", "work (meas)")
		for _, step := range core.Steps {
			ps := pred.Step(step)
			ms := got.Steps[step]
			pb.AddRow(step, fmtS(ps.CommSeconds), fmtS(ms.Comm),
				fmt.Sprintf("%d", ps.WorkUnits), fmt.Sprintf("%d", ms.Work))
		}

		r.Finding("%s: planner pick %s is %.2f%% above the oracle best %s on the modeled critical path",
			sh.name, pick.Config, gap, best.Cfg)
	}

	// The sparse×dense shape: the pick must also choose the algorithm family.
	for _, sh := range densePlanShapes {
		a := SpMMGraph(opts.Scale)
		panel := PanelFor(a, sh.d)
		machine := costmodel.CoriKNL().ScaledBeta(commAmplification(opts.Scale))
		pl, err := densePlanFor(a, sh.d, sh.p, machine)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		pick := pl.Best()
		if pick == nil {
			return nil, fmt.Errorf("%s: planner found no feasible configuration", sh.name)
		}
		entries, err := denseOracle(a, panel, sh.p, machine, oracleBSet(pick.B))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		best := denseOracleBest(entries)
		got := denseOracleFind(entries, pick.DenseConfig)
		if best == nil || got == nil {
			return nil, fmt.Errorf("%s: oracle sweep cannot score the pick", sh.name)
		}
		sorted := append([]denseOracleEntry(nil), entries...)
		sort.Slice(sorted, func(x, y int) bool { return sorted[x].ModelSeconds < sorted[y].ModelSeconds })
		tb := r.NewTable(fmt.Sprintf("%s (p=%d, d=%d): oracle top 5 vs planner pick", sh.name, sh.p, sh.d),
			"rank", "config", "model s", "comm s", "work units", "planner pick")
		show := len(sorted)
		if show > 5 {
			show = 5
		}
		for i := 0; i < show; i++ {
			e := sorted[i]
			mark := ""
			if e.Cfg == pick.DenseConfig {
				mark = "◀ pick"
			}
			tb.AddRow(fmt.Sprintf("%d", i+1), e.Cfg.String(), fmtS(e.ModelSeconds),
				fmtS(e.CommSeconds), fmt.Sprintf("%d", e.WorkUnits), mark)
		}
		gap := 100 * (got.ModelSeconds/best.ModelSeconds - 1)
		r.Finding("%s: planner pick %s is %.2f%% above the oracle best %s across the full algorithm axis (%d configurations swept)",
			sh.name, pick.DenseConfig, gap, best.Cfg, len(entries))
	}
	return r, nil
}

// fmtMem renders a byte budget compactly.
func fmtMem(mem int64) string {
	if mem <= 0 {
		return "∞"
	}
	return fmt.Sprintf("%.3g MB", float64(mem)/1e6)
}

// RunAutotune is `spgemm-bench -autotune`: for each planner-gate shape it
// prints the ranked plan with its "why" report, executes the chosen
// configuration for real, and prints the predicted per-step breakdown next
// to the measured one (including the measured hidden share when the pick is
// pipelined).
func RunAutotune(opts RunOpts, w io.Writer) error {
	for _, sh := range planShapes {
		a, b, machine, mem, err := planShapeInputs(sh, opts.Scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== autotune: %s (p=%d, M=%s) ==\n\n", sh.name, sh.p, fmtMem(mem))
		pl, err := planFor(a, b, sh.p, machine, mem)
		if err != nil {
			return fmt.Errorf("%s: %w", sh.name, err)
		}
		fmt.Fprint(w, pl.Report())
		pick := pl.Best()
		if pick == nil {
			return fmt.Errorf("%s: no feasible configuration to run", sh.name)
		}

		fmt.Fprintf(w, "\nrunning the chosen configuration (%s)…\n", pick.Config)
		rr := runMul(a, b, sh.p, pick.L, machine, 0, pick.B,
			core.Options{RunSymbolic: true, Format: pick.Format, Pipeline: pick.Pipeline,
				SparseComm: pick.SparseComm, Channels: pick.Channels}, false)
		if rr.Err != nil {
			return fmt.Errorf("%s: %w", sh.name, rr.Err)
		}
		fmt.Fprintf(w, "  %-16s %14s %14s %12s %12s\n", "step", "comm s (pred)", "comm s (meas)", "work (pred)", "work (meas)")
		for _, step := range core.Steps {
			ps := pick.Step(step)
			ms := rr.Summary.Step(step)
			fmt.Fprintf(w, "  %-16s %14.6g %14.6g %12d %12d\n",
				step, ps.CommSeconds, ms.CommSeconds, ps.WorkUnits, ms.WorkUnits)
		}
		var work int64
		for _, step := range core.Steps {
			work += rr.Summary.Step(step).WorkUnits
		}
		measured := commSeconds(rr.Summary) + float64(work)*GateSecPerWorkUnit
		fmt.Fprintf(w, "  modeled critical path: predicted %.6g s, measured %.6g s\n",
			pick.ModelSeconds, measured)
		if pick.Pipeline {
			fmt.Fprintf(w, "  hidden communication: predicted %.6g s, measured %.6g s\n",
				pick.HiddenSeconds, hiddenSeconds(rr.Summary))
		}
		fmt.Fprintln(w)
	}
	return nil
}
