package planner

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/costmodel"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// DefaultSecPerWork converts abstract work units (flops, scanned and merged
// nonzeros) to modeled seconds — the same pinned rate the CI perf gate uses,
// so planner scores and gate scores live on one scale.
const DefaultSecPerWork = 1e-9

// DefaultImbalance scales mean-based per-rank estimates (the unmerged
// intermediate behind the batch decision and the peak-memory model) up to
// per-rank maxima. Input distributions are randomly permuted power-law
// matrices, whose per-rank load at the simulated grid sizes stays within a
// small factor of the mean.
const DefaultImbalance = 1.5

// The search space every plan ranks, in sweep order within a grid: format,
// then sparse mode, then the staged candidate and its pipelined variants, one
// per channel count. An Input says only what the caller is constrained by;
// the planner decides every axis listed here.
var (
	// Formats lists the candidate storage formats.
	Formats = []spmat.Format{spmat.FormatCSC, spmat.FormatDCSC, spmat.FormatAuto}
	// SparseModes lists the sparse A-broadcast modes: off and the per-stage
	// cost-model decision. SparseOn is never a candidate — auto's prediction
	// is ≤ on's by construction (it takes subsets exactly where they win),
	// so on can never be the optimum.
	SparseModes = []mpi.SparseMode{mpi.SparseOff, mpi.SparseAuto}
	// Channels lists the overlap channel counts k of a pipelined candidate:
	// the single-injection ledger and a second NIC channel. Higher k only
	// adds hiding capacity beyond what two independent broadcast streams can
	// use, so k = 2 saturates the model.
	Channels = []int{1, 2}
)

// Input configures a planning run: the constraints the caller is under.
// Every prediction models spmat.BytesPerNonzero bytes per stored nonzero,
// scores work at DefaultSecPerWork, probes DefaultSampleCols columns and
// scales mean-based per-rank estimates by DefaultImbalance.
type Input struct {
	// P is the total rank count. Required.
	P int
	// MemBytes is the aggregate memory budget M (0 = unconstrained, which
	// induces b = 1 everywhere).
	MemBytes int64
	// Machine supplies α, β, and the communication scale factor.
	Machine costmodel.Machine
	// Symbolic includes the distributed symbolic pass in every prediction
	// (the memory-constrained workflow always runs it).
	Symbolic bool
}

func (in Input) withDefaults() Input {
	if in.Machine.Name == "" {
		in.Machine = costmodel.CoriKNL()
	}
	return in
}

// Plan is the ranked outcome of a planning run.
type Plan struct {
	// In echoes the (defaulted) inputs the decision was made under.
	In Input
	// Probe is the input statistics everything was predicted from.
	Probe *Probe
	// Candidates holds every evaluated configuration, best first (feasible
	// configurations strictly before infeasible ones).
	Candidates []Candidate

	qOf   map[int]int
	stats map[int]*gridStat
}

// LayersFor returns every layer count l for which p ranks form a grid with
// square layers, ascending.
func LayersFor(p int) []int {
	var out []int
	for l := 1; l <= p; l++ {
		if p%l == 0 && grid.ValidP(p, l) {
			out = append(out, l)
		}
	}
	return out
}

// New probes the pair (A, B) and evaluates the full configuration space for
// it — every layer count LayersFor gives, crossed with Formats, SparseModes
// and the schedules — returning the ranked plan. The decision is
// deterministic: the probe samples on a fixed stride and ties rank by
// (layers, batches, format, sparse mode, schedule, channels).
func New(a, b *spmat.CSC, in Input) (*Plan, error) {
	in = in.withDefaults()
	if in.P <= 0 {
		return nil, fmt.Errorf("planner: rank count %d", in.P)
	}
	layers := LayersFor(in.P)
	grids := make([]probedGrid, len(layers))
	for x, l := range layers {
		q, err := grid.SideFor(in.P, l)
		if err != nil {
			return nil, fmt.Errorf("planner: layer count %d: %w", l, err)
		}
		grids[x].q, grids[x].l = q, l
	}
	pr, err := probe(a, b, 0, grids)
	if err != nil {
		return nil, err
	}
	pl := &Plan{In: in, Probe: pr, qOf: make(map[int]int, len(layers)), stats: make(map[int]*gridStat, len(layers))}
	// At most every (format, sparse mode) point of every grid is feasible,
	// with one pipelined variant per channel count: the candidates and their
	// step breakdowns are sized once for that.
	most := len(layers) * len(Formats) * len(SparseModes) * (1 + len(Channels))
	pl.Candidates = make([]Candidate, 0, most)
	steps := make(stepArena, most*len(Steps))
	for _, g := range grids {
		gs := computeGridStat(a, b, g.q, g.l)
		pl.qOf[g.l], pl.stats[g.l] = g.q, gs
		pl.enumerate(gs, &steps)
	}
	pl.rank()
	return pl, nil
}

// stepArena is the array New cuts every candidate's step breakdown from.
type stepArena []StepCost

// next cuts the next breakdown: empty, with room for every step and no more,
// so an append past it cannot reach the next candidate's. An exhausted arena
// makes a new array.
func (sa *stepArena) next() []StepCost {
	n := len(Steps)
	if len(*sa) < n {
		return make([]StepCost, 0, n)
	}
	s := (*sa)[:0:n]
	*sa = (*sa)[n:]
	return s
}

// enumerate appends gs's candidates in sweep order: format, then sparse
// mode, then the staged candidate and its pipelined variants.
func (pl *Plan) enumerate(gs *gridStat, steps *stepArena) {
	for _, f := range Formats {
		for _, sm := range SparseModes {
			staged := pl.predict(gs, f, 0, sm, steps.next())
			pl.Candidates = append(pl.Candidates, staged)
			if !staged.Feasible {
				continue
			}
			for _, k := range Channels {
				pl.Candidates = append(pl.Candidates, pl.applyOverlap(staged, k, steps.next()))
			}
		}
	}
}

// rank orders the candidates best first: feasible before infeasible, then by
// modeled seconds, ties broken by (layers, batches, format, sparse mode,
// schedule, channels).
func (pl *Plan) rank() {
	sort.SliceStable(pl.Candidates, func(x, y int) bool {
		cx, cy := &pl.Candidates[x], &pl.Candidates[y]
		if cx.Feasible != cy.Feasible {
			return cx.Feasible
		}
		if cx.ModelSeconds != cy.ModelSeconds {
			return cx.ModelSeconds < cy.ModelSeconds
		}
		if cx.L != cy.L {
			return cx.L < cy.L
		}
		if cx.B != cy.B {
			return cx.B < cy.B
		}
		if cx.Format != cy.Format {
			return cx.Format < cy.Format
		}
		if cx.SparseComm != cy.SparseComm {
			return cx.SparseComm < cy.SparseComm
		}
		if cx.Pipeline != cy.Pipeline {
			return !cx.Pipeline
		}
		return cx.Channels < cy.Channels
	})
}

// qFor returns the per-layer grid side of a candidate layer count.
func (pl *Plan) qFor(l int) int { return pl.qOf[l] }

// AllreduceShare returns the modeled cost of the symbolic step's four
// blocking Allreduces (three footprint maxima plus the batch agreement) —
// the share of the Symbolic step's communication the pipelined schedule can
// never hide. Exported so the oracle comparison applies the identical
// overlap input.
func (pl *Plan) AllreduceShare() float64 {
	if !pl.In.Symbolic {
		return 0
	}
	cm := mpi.CostModel{AlphaSec: pl.In.Machine.AlphaSec, BetaSecPerByte: pl.In.Machine.BetaSecPerByte}
	return pl.In.Machine.CommScale * 4 * cm.AllreduceCost(pl.In.P, 8)
}

// Evaluate predicts one explicit configuration, pinning its batch count
// instead of inducing it from the memory model (cfg.B ≤ 0 induces). The
// layer count must be one of LayersFor(P); the other axes may leave the
// ranked space (SparseOn, k > 2). Tests compare these predictions against the
// meters of real runs, and the oracle comparison uses them to show
// predicted-vs-measured breakdowns for arbitrary swept points.
func (pl *Plan) Evaluate(cfg Config) (Candidate, error) {
	gs, ok := pl.stats[cfg.L]
	if !ok {
		return Candidate{}, fmt.Errorf("planner: layer count %d was not enumerated", cfg.L)
	}
	c := pl.predict(gs, cfg.Format, cfg.B, cfg.SparseComm, make([]StepCost, 0, len(Steps)))
	if cfg.Pipeline {
		c = pl.applyOverlap(c, cfg.Channels, nil)
	}
	return c, nil
}

// Best returns the top-ranked feasible candidate, or nil when the space is
// entirely infeasible under the budget.
func (pl *Plan) Best() *Candidate {
	if len(pl.Candidates) == 0 || !pl.Candidates[0].Feasible {
		return nil
	}
	return &pl.Candidates[0]
}

func itoa(v int) string { return strconv.Itoa(v) }
