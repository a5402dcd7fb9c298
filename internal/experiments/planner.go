package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/grid"
	"repro/internal/planner"
	"repro/internal/service"
	"repro/internal/spmat"
)

// This file scores the analytical planner against ground truth: an
// exhaustive oracle sweep over l × b × format × sparse-comm × pipeline × k on
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

// oracleConfig is a point of either swept space: a sparse×sparse
// planner.Config or a sparse×dense planner.DenseConfig.
type oracleConfig interface {
	comparable
	String() string
}

// oracleEntry is one swept configuration's deterministic modeled outcome.
type oracleEntry[C oracleConfig] struct {
	Cfg          C
	CommSeconds  float64
	WorkUnits    int64
	ModelSeconds float64
	// Feasible is false when the configuration's batch count is below what
	// the real distributed symbolic decision (Alg 3) requires under the
	// budget.
	Feasible bool
	// Steps carries the per-step (comm seconds, work units) of the staged
	// run this entry derives from, keyed by step name (sparse×sparse only).
	Steps map[string]stepPair
}

// stepPair bundles one step's deterministic cost pair.
type stepPair struct {
	Comm float64
	Work int64
}

// planOracle exhaustively sweeps l × b × format × sparse-comm with real
// staged runs and derives each point's pipelined twins, one per channel
// count, through the shared overlap model — planner.Formats,
// planner.SparseModes and planner.Channels, in the planner's order.
// Feasibility under mem comes from the real symbolic decision per
// (l, format), and that decision's own b joins the sweep — the smallest
// feasible batch count is also the best feasible one (batches only add
// A-broadcast volume), so the true optimum is always a swept point.
func planOracle(a, b *spmat.CSC, p int, machine costmodel.Machine, mem int64, bSet []int) ([]oracleEntry[planner.Config], error) {
	allreduce := 4 * machine.CommScale * machine.Cost().AllreduceCost(p, 8)
	var out []oracleEntry[planner.Config]
	for _, l := range planner.LayersFor(p) {
		q, err := grid.SideFor(p, l)
		if err != nil {
			return nil, err
		}
		for _, f := range planner.Formats {
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
			if feasibleAtAll && minB > 1 && !slices.Contains(bSet, minB) {
				localBSet = append(append([]int(nil), bSet...), minB)
				sort.Ints(localBSet)
			}
			for _, bv := range localBSet {
				for _, sm := range planner.SparseModes {
					rr, err := execute(a, b, nil, pins{p: p, l: l, machine: machine,
						opts: core.Options{ForceBatches: bv, RunSymbolic: true, Format: f, SparseComm: sm}})
					if err != nil {
						return nil, fmt.Errorf("oracle l=%d b=%d %v %v: %w", l, bv, f, sm, err)
					}
					steps := make(map[string]stepPair, len(core.Steps))
					for _, step := range core.Steps {
						st := rr.summary.Step(step)
						steps[step] = stepPair{Comm: st.CommSeconds, Work: st.WorkUnits}
					}
					feasible := feasibleAtAll && bv >= minB
					staged := oracleEntry[planner.Config]{
						Cfg:          planner.Config{L: l, B: bv, Format: f, SparseComm: sm},
						CommSeconds:  rr.comm,
						WorkUnits:    rr.work,
						ModelSeconds: rr.model(),
						Feasible:     feasible,
						Steps:        steps,
					}
					out = append(out, staged)
					for _, k := range planner.Channels {
						out = append(out, pipelinedEntry(staged, p, q, allreduce, k))
					}
				}
			}
		}
	}
	return out, nil
}

// denseOracle exhaustively sweeps the sparse×dense configuration space with
// real staged runs — SUMMA over l × b plus both 1.5D schedules over c × b —
// scored under the gate objective. Every point is feasible (the dense shape
// runs unconstrained, the b = 1 memory regime).
func denseOracle(a *spmat.CSC, panel *spmat.DenseMat, p int, machine costmodel.Machine, bSet []int) ([]oracleEntry[planner.DenseConfig], error) {
	var cfgs []planner.DenseConfig
	for _, l := range planner.LayersFor(p) {
		cfgs = append(cfgs, planner.DenseConfig{Algo: planner.AlgoSUMMA, L: l})
	}
	for _, c := range planner.ReplicationsFor(p) {
		cfgs = append(cfgs, planner.DenseConfig{Algo: planner.AlgoColA, C: c}, planner.DenseConfig{Algo: planner.AlgoInnerABC, C: c})
	}
	var out []oracleEntry[planner.DenseConfig]
	for _, cfg := range cfgs {
		for _, bv := range bSet {
			cfg.B = bv
			rr, err := execute(a, nil, panel, pins{p: p, machine: machine, dense: &cfg})
			if err != nil {
				return nil, fmt.Errorf("dense oracle %s: %w", cfg, err)
			}
			out = append(out, oracleEntry[planner.DenseConfig]{
				Cfg:          cfg,
				CommSeconds:  rr.comm,
				WorkUnits:    rr.work,
				ModelSeconds: rr.model(),
				Feasible:     true,
			})
		}
	}
	return out, nil
}

// pipelinedEntry derives the pipelined twin of a staged oracle point under k
// overlap channels by applying the shared overlap-ledger model to its
// deterministic step costs, with per-rank compute valued at the pinned work
// rate. allreduce is the symbolic step's blocking-Allreduce share, excluded
// from the hideable broadcast cost exactly as the planner's own transform
// excludes it. k ≤ 1 keeps Config.Channels at the zero value so the swept
// space matches the planner's spellings exactly.
func pipelinedEntry(staged oracleEntry[planner.Config], p, q int, allreduce float64, k int) oracleEntry[planner.Config] {
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

// planScore is one planner-gate shape's pick scored against its oracle
// sweep.
type planScore[C oracleConfig] struct {
	name string
	// pick is the planner's pick, nil when it found no feasible
	// configuration (and the oracle did not run).
	pick    *C
	entries []oracleEntry[C]
	// best is the oracle's best feasible entry and got the pick's entry, nil
	// when there is none.
	best, got *oracleEntry[C]
}

// scored scores pick against the oracle sweep entries: it finds the best
// feasible entry and the pick's own.
func scored[C oracleConfig](name string, pick C, entries []oracleEntry[C]) *planScore[C] {
	s := &planScore[C]{name: name, pick: &pick, entries: entries}
	for i := range entries {
		e := &entries[i]
		if e.Feasible && (s.best == nil || e.ModelSeconds < s.best.ModelSeconds) {
			s.best = e
		}
		if s.got == nil && e.Cfg == pick {
			s.got = e
		}
	}
	return s
}

// gap is how far, in percent, the pick models above the oracle's best.
func (s *planScore[C]) gap() float64 {
	return 100 * (s.got.ModelSeconds/s.best.ModelSeconds - 1)
}

// check appends the shape's violations at tolerance tol to bad: a missing,
// unscored or infeasible pick, or one whose modeled critical path exceeds
// the oracle's best by more than tol. Once the pick is scored it writes the
// shape's line — the pick, the oracle's best and the gap — to w, and reports
// true.
func (s *planScore[C]) check(tol float64, w io.Writer, bad *[]string) bool {
	fail := func(format string, args ...any) {
		*bad = append(*bad, s.name+": "+fmt.Sprintf(format, args...))
	}
	switch {
	case s.pick == nil:
		fail("planner found no feasible configuration")
	case s.best == nil:
		fail("oracle found no feasible configuration")
	case s.got == nil:
		fail("pick %s not covered by the oracle sweep", *s.pick)
	case !s.got.Feasible:
		fail("pick %s is infeasible under the budget (real symbolic decision needs more batches)", *s.pick)
	default:
		if s.got.ModelSeconds > s.best.ModelSeconds*(1+tol) {
			fail("pick %s models %.6g s, oracle best %s models %.6g s — %.1f%% above (tolerance %.0f%%)",
				*s.pick, s.got.ModelSeconds, s.best.Cfg, s.best.ModelSeconds, s.gap(), 100*tol)
		}
		fmt.Fprintf(w, "%s: pick %s, oracle best %s, %.2f%% above\n", s.name, *s.pick, s.best.Cfg, s.gap())
		return true
	}
	return false
}

// leaderboard appends a table of the oracle's five best feasible points to
// r, marking the pick; it fails when the planner or the oracle found nothing
// to score.
func (s *planScore[C]) leaderboard(r *Report, name string) (*Table, error) {
	if s.pick == nil {
		return nil, fmt.Errorf("%s: planner found no feasible configuration", s.name)
	}
	if s.best == nil || s.got == nil {
		return nil, fmt.Errorf("%s: oracle sweep cannot score the pick", s.name)
	}
	tb := r.NewTable(name, "rank", "config", "model s", "comm s", "work units", "planner pick")
	feasible := make([]oracleEntry[C], 0, len(s.entries))
	for _, e := range s.entries {
		if e.Feasible {
			feasible = append(feasible, e)
		}
	}
	sort.Slice(feasible, func(x, y int) bool { return feasible[x].ModelSeconds < feasible[y].ModelSeconds })
	for i, e := range feasible[:min(5, len(feasible))] {
		mark := ""
		if e.Cfg == *s.pick {
			mark = "◀ pick"
		}
		tb.AddRow(fmt.Sprintf("%d", i+1), e.Cfg.String(), fmtS(e.ModelSeconds),
			fmtS(e.CommSeconds), fmt.Sprintf("%d", e.WorkUnits), mark)
	}
	return tb, nil
}

// planShapeInputs prepares one planner-gate shape: operands, machine, and
// the memory budget reproducing the shape's batch regime.
func planShapeInputs(sh planShape, sc Scale) (a, b *spmat.CSC, machine costmodel.Machine, mem int64) {
	a, b = PairFor(mustWorkload(sh.wl, sc))
	machine = costmodel.CoriKNL().ScaledBeta(commAmplification(sc))
	if sh.wantB > 1 {
		mem = memoryForBatches(a, b, sh.p, 16, sh.wantB, 24)
	}
	return a, b, machine, mem
}

// planGateInput is the runtime autotune's planner input with the symbolic
// pass run, as in every oracle run. Its work-unit rate is the gate's
// (GateSecPerWorkUnit is planner.DefaultSecPerWork), so planner scores and
// oracle scores share the objective.
func planGateInput(p int, machine costmodel.Machine, mem int64) planner.Input {
	return core.PlanInput(core.RunConfig{P: p, Opts: core.Options{MemBytes: mem, RunSymbolic: true}}, machine)
}

// scorePlanShape plans a prepared planner-gate shape and scores the pick
// against the exhaustive oracle sweep, returning the plan beside the score.
func scorePlanShape(sh planShape, a, b *spmat.CSC, machine costmodel.Machine, mem int64) (*planner.Plan, *planScore[planner.Config], error) {
	pl, err := planner.New(a, b, planGateInput(sh.p, machine, mem))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", sh.name, err)
	}
	pick := pl.Best()
	if pick == nil {
		return pl, &planScore[planner.Config]{name: sh.name}, nil
	}
	entries, err := planOracle(a, b, sh.p, machine, mem, oracleBSet(pick.B))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", sh.name, err)
	}
	return pl, scored(sh.name, pick.Config, entries), nil
}

// scoreDenseShape plans a sparse×dense planner-gate shape and scores the
// pick — the plan's best staged candidate — against the oracle sweep.
func scoreDenseShape(sh densePlanShape, sc Scale) (*planScore[planner.DenseConfig], error) {
	a := SpMMGraph(sc)
	machine := costmodel.CoriKNL().ScaledBeta(commAmplification(sc))
	pl, err := planner.NewDense(a, sh.d, planner.DenseInput{P: sh.p, Machine: machine})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sh.name, err)
	}
	staged := stagedCandidates(pl)
	if len(staged) == 0 || !staged[0].Feasible {
		return &planScore[planner.DenseConfig]{name: sh.name}, nil
	}
	pick := staged[0].DenseConfig
	entries, err := denseOracle(a, PanelFor(a, sh.d), sh.p, machine, oracleBSet(pick.B))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sh.name, err)
	}
	return scored(sh.name, pick, entries), nil
}

// stagedCandidates returns a sparse×dense plan's staged candidates, best
// first: the oracle scores staged runs only, as pipelined hiding depends on
// wall-clock compute.
func stagedCandidates(pl *planner.DensePlan) []planner.DenseCandidate {
	var out []planner.DenseCandidate
	for _, c := range pl.Candidates {
		if !c.Pipeline {
			out = append(out, c)
		}
	}
	return out
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

// RunPlanGate scores the planner's pick against the exhaustive oracle on
// every planner-gate shape, writes one line per scored shape to w (the
// pick, the oracle's best and the gap), and returns one message per
// violation (empty = gate passes): a missing or infeasible pick, or a pick
// whose modeled critical path exceeds the oracle's best by more than tol.
func RunPlanGate(sc Scale, tol float64, w io.Writer) ([]string, error) {
	var bad []string
	planCache := service.NewPlanCache()
	for _, sh := range planShapes {
		a, b, machine, mem := planShapeInputs(sh, sc)
		pl, s, err := scorePlanShape(sh, a, b, machine, mem)
		if err != nil {
			return nil, err
		}
		if !s.check(tol, w, &bad) {
			continue
		}

		// Cached-plan pass: the same decision served through the service's
		// plan cache must miss exactly once, hit on the replan, and return
		// the identical pick — so the cached path inherits the oracle bound
		// just established for the fresh one.
		key := planner.CacheKey(spmat.FingerprintOf(a).Key(), spmat.FingerprintOf(b).Key(), pl.In)
		fresh := pl.Best().Choice()
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
		s, err := scoreDenseShape(sh, sc)
		if err != nil {
			return nil, err
		}
		s.check(tol, w, &bad)
	}
	return bad, nil
}

func init() {
	register(&Experiment{
		ID:    "planner",
		Title: "analytical autotuner vs exhaustive oracle sweep",
		claim: "The paper picks l and b by sweeping (Figs 4, 6, 8); an α–β cost model over " +
			"cheap input statistics should be able to pick them analytically (cf. Azad et al.'s " +
			"multi-level 3D SpGEMM model), within a few percent of the swept optimum.",
		run: runPlannerExperiment,
	})
}

// runPlannerExperiment scores the planner's pick against the exhaustive
// oracle sweep on every planner-gate shape, under the gate's deterministic
// objective, and sets the pick's predicted per-step breakdown next to the
// measured one.
func runPlannerExperiment(r *Report, opts RunOpts) error {
	for _, sh := range planShapes {
		a, b, machine, mem := planShapeInputs(sh, opts.Scale)
		pl, s, err := scorePlanShape(sh, a, b, machine, mem)
		if err != nil {
			return err
		}
		tb, err := s.leaderboard(r, fmt.Sprintf("%s (p=%d, M=%s): oracle top 5 vs planner pick", sh.name, sh.p, fmtMem(mem)))
		if err != nil {
			return err
		}
		pick := *s.pick
		tb.Notes = append(tb.Notes, fmt.Sprintf(
			"planner pick %s: modeled %.6g s, %.2f%% above oracle best %s (%d configurations swept)",
			pick, s.got.ModelSeconds, s.gap(), s.best.Cfg, len(s.entries)))

		// Predicted vs measured per-step breakdown of the pick's staged
		// twin: the oracle's per-step measurements come from the staged run
		// (the pipelined exposure split depends on wall-clock compute), so
		// the predictor-quality audit compares staged against staged.
		stagedCfg := pick
		stagedCfg.Pipeline = false
		pred, err := pl.Evaluate(stagedCfg)
		if err != nil {
			return fmt.Errorf("%s: %w", sh.name, err)
		}
		pb := r.NewTable(fmt.Sprintf("%s: pick %s (staged twin) — predicted vs measured per step", sh.name, pick),
			"step", "comm s (pred)", "comm s (meas)", "work (pred)", "work (meas)")
		for _, step := range core.Steps {
			ps := pred.Step(step)
			ms := s.got.Steps[step]
			pb.AddRow(step, fmtS(ps.CommSeconds), fmtS(ms.Comm),
				fmt.Sprintf("%d", ps.WorkUnits), fmt.Sprintf("%d", ms.Work))
		}

		r.Finding("%s: planner pick %s is %.2f%% above the oracle best %s on the modeled critical path",
			sh.name, pick, s.gap(), s.best.Cfg)
	}

	// The sparse×dense shape: the pick must also choose the algorithm family.
	for _, sh := range densePlanShapes {
		s, err := scoreDenseShape(sh, opts.Scale)
		if err != nil {
			return err
		}
		if _, err := s.leaderboard(r, fmt.Sprintf("%s (p=%d, d=%d): oracle top 5 vs planner pick", sh.name, sh.p, sh.d)); err != nil {
			return err
		}
		r.Finding("%s: planner pick %s is %.2f%% above the oracle best %s across the full algorithm axis (%d configurations swept)",
			sh.name, *s.pick, s.gap(), s.best.Cfg, len(s.entries))
	}
	return nil
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
// configuration for real the way the runtime autotune does (core.ApplyChoice
// on the shape's budget: under a budget the symbolic step chooses b), and
// prints the predicted per-step breakdown next to the measured one
// (including the measured hidden share when the pick is pipelined).
func RunAutotune(opts RunOpts, w io.Writer) error {
	for _, sh := range planShapes {
		a, b, machine, mem := planShapeInputs(sh, opts.Scale)
		fmt.Fprintf(w, "== autotune: %s (p=%d, M=%s) ==\n\n", sh.name, sh.p, fmtMem(mem))
		pl, err := planner.New(a, b, planGateInput(sh.p, machine, mem))
		if err != nil {
			return fmt.Errorf("%s: %w", sh.name, err)
		}
		fmt.Fprint(w, pl.Report())
		pick := pl.Best()
		if pick == nil {
			return fmt.Errorf("%s: no feasible configuration to run", sh.name)
		}

		fmt.Fprintf(w, "\nrunning the chosen configuration (%s)…\n", pick.Config)
		rc, err := core.ApplyChoice(core.RunConfig{P: sh.p, Opts: core.Options{MemBytes: mem, RunSymbolic: true}}, pick.Choice())
		if err != nil {
			return fmt.Errorf("%s: %w", sh.name, err)
		}
		rr, err := execute(a, b, nil, pins{p: rc.P, l: rc.L, machine: machine, opts: rc.Opts})
		if err != nil {
			return fmt.Errorf("%s: %w", sh.name, err)
		}
		fmt.Fprintf(w, "  %-16s %14s %14s %12s %12s\n", "step", "comm s (pred)", "comm s (meas)", "work (pred)", "work (meas)")
		for _, step := range core.Steps {
			ps := pick.Step(step)
			ms := rr.summary.Step(step)
			fmt.Fprintf(w, "  %-16s %14.6g %14.6g %12d %12d\n",
				step, ps.CommSeconds, ms.CommSeconds, ps.WorkUnits, ms.WorkUnits)
		}
		fmt.Fprintf(w, "  modeled critical path: predicted %.6g s, measured %.6g s\n",
			pick.ModelSeconds, rr.model())
		if pick.Pipeline {
			fmt.Fprintf(w, "  hidden communication: predicted %.6g s, measured %.6g s\n",
				pick.HiddenSeconds, hiddenSeconds(rr.summary))
		}
		fmt.Fprintln(w)
	}
	return nil
}
