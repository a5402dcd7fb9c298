package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/distmat"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/spmat"
)

// RunConfig describes one distributed multiplication launched from the host:
// the process-grid shape, the α–β constants used to model communication, and
// the algorithm options.
type RunConfig struct {
	// P is the number of simulated processes; must be L times a perfect
	// square.
	P int
	// L is the number of layers (1 = plain 2D SUMMA).
	L int
	// Cost supplies the modeled latency and inverse bandwidth.
	Cost mpi.CostModel
	// Opts are the algorithm options shared by all ranks.
	Opts Options
	// Trace, when non-nil, records one obs span per metered interval of every
	// rank (batch/stage/channel labeled), exportable afterwards as a
	// Chrome/Perfetto trace via Trace.WriteTrace. Nil — the default — records
	// nothing and adds zero allocations to the metered hot paths.
	Trace *obs.Recorder
}

// HookFactory builds a per-rank batch hook; nil means no hook. The factory is
// called once per rank with the world rank, on that rank's goroutine, and
// the hooks run concurrently, one goroutine per rank: any state the factory
// or its hooks share must be per-rank or synchronised.
type HookFactory func(rank int) BatchHook

// RowOffsetFor returns the global row index of local row 0 for the given
// world rank on a p-rank, l-layer grid over a matrix with the given row
// count. Hook factories use it to translate the local row indices their
// hooks receive into global rows.
func RowOffsetFor(rows int32, p, l, rank int) int32 {
	q, err := grid.SideFor(p, l)
	if err != nil {
		panic(err)
	}
	i := (rank % (q * q)) / q
	return spmat.PartBounds(rows, q)[i]
}

// Role is the distribution an operand is dealt out in: A's, whose block
// columns are sliced into layers, or B's, whose block rows are (distmat).
type Role uint8

const (
	RoleA Role = iota
	RoleB
)

func (r Role) String() string {
	if r == RoleA {
		return "A"
	}
	return "B"
}

// Dealt is one operand dealt out over a run's grid: the blocks distmat's
// Split made for one role, and the grid side q, layer count l and storage
// format they were made for. Nothing writes to a Dealt or its blocks once Deal
// returns — the ranks read their blocks in place — so one Dealt may serve any
// number of runs, concurrent or not, on the same grid and format.
//
// A Dealt the caller made with Deal is the caller's for as long as it likes:
// its arrays are allocated at their exact sizes, and nothing in this package
// gives them back. The one-shot entry points (Multiply, MultiplyDiscard,
// MultiplyRanks, SymbolicBatches) lend theirs: they deal for the call with
// the arrays drawn from spmat's free list of arrays (distmat's Lend)
// and release the deal once the run has ended, so the next call's deal is
// drawn from the same arrays.
type Dealt struct {
	role       Role
	rows, cols int32
	q, l       int
	format     spmat.Format
	blocks     []spmat.Matrix
}

// Deal deals m out for role on rc's grid (P ranks, L layers) in
// rc.Opts.Format: one count-then-place sweep on the host (distmat's Split —
// the simulated equivalent of reading a pre-distributed matrix, and the only
// time the engine copies an operand). The result is the caller's: it is
// never released behind the caller's back.
func Deal(m *spmat.CSC, role Role, rc RunConfig) (*Dealt, error) {
	return dealAs(m, role, rc, false)
}

// dealAs is Deal, with the blocks' arrays on loan (distmat's Lend) when lend
// is set: the caller releases the Dealt once its run has ended.
func dealAs(m *spmat.CSC, role Role, rc RunConfig, lend bool) (*Dealt, error) {
	q, err := grid.SideFor(rc.P, rc.L)
	if err != nil {
		return nil, err
	}
	d := &Dealt{role: role, rows: m.Rows, cols: m.Cols, q: q, l: rc.L, format: rc.Opts.Format}
	switch {
	case role == RoleA && lend:
		d.blocks = distmat.NewADist(m.Rows, m.Cols, q, rc.L).Lend(m, d.format)
	case role == RoleA:
		d.blocks = distmat.NewADist(m.Rows, m.Cols, q, rc.L).Split(m, d.format)
	case lend:
		d.blocks = distmat.NewBDist(m.Rows, m.Cols, q, rc.L).Lend(m, d.format)
	default:
		d.blocks = distmat.NewBDist(m.Rows, m.Cols, q, rc.L).Split(m, d.format)
	}
	return d, nil
}

// Blocks returns the dealt blocks, shared: a caller reads them and never
// writes to them.
func (d *Dealt) Blocks() []spmat.Matrix { return d.blocks }

// fits reports, as an error, why d cannot be the role operand of a run on a
// q-sided grid with rc's layer count and format.
func (d *Dealt) fits(role Role, q int, rc RunConfig) error {
	if d.role != role || d.q != q || d.l != rc.L || d.format != rc.Opts.Format {
		return fmt.Errorf("core: the %s operand was dealt as %s for q=%d, l=%d, format %v; the run needs %s for q=%d, l=%d, format %v",
			role, d.role, d.q, d.l, d.format, role, q, rc.L, rc.Opts.Format)
	}
	return nil
}

// release gives the blocks of a deal lent for one call (dealAs) back to the
// free list they were drawn from (spmat.Release), once every rank that read
// them has ended. Releasing twice is releasing once.
func (d *Dealt) release() {
	for _, m := range d.blocks {
		spmat.Release(m)
	}
	d.blocks = nil
}

// deal deals a out as A and b as B on rc's grid, lent for one call: the
// caller releases both once its run has ended.
func deal(a, b *spmat.CSC, rc RunConfig) (da, db *Dealt, err error) {
	if da, err = dealAs(a, RoleA, rc, true); err == nil {
		db, err = dealAs(b, RoleB, rc, true)
	}
	return da, db, err
}

// world is a simulated cluster kept across runs: an mpi.World of P ranks
// charged under one cost model and, from its first run on, every rank's
// L-layer process grid (grid.New), which later runs use as it is. A run on a
// kept world therefore builds neither the world nor its row, column, layer
// and fiber communicators; it starts only the rank goroutines, which end with
// the run, so an idle world holds none.
type world struct {
	mw    *mpi.World
	key   worldKey
	grids []*grid.Grid3D
}

// worldKey is what binds a world: its rank count, layer count and cost
// model. Every run brings its own options and trace.
type worldKey struct {
	p, l int
	cost mpi.CostModel
}

// maxIdleRanks bounds the ranks of one Worlds' idle worlds together. An idle
// world keeps about 3 KB a rank, so the bound pins about 12 MB.
const maxIdleRanks = 4096

// Worlds keeps the simulated clusters of finished runs for the next run on
// the same grid and cost model. A run takes an idle world of its key, or
// builds one when none is idle, and gives it back once it has ended and its
// summary is taken: kept idle if the run succeeded, dropped if it failed —
// an aborted world never runs again. Concurrent runs hold distinct worlds,
// so they share no mutable engine state. The idle worlds hold at most
// maxIdleRanks ranks together: giving one back past the bound drops the
// oldest first, and a world larger than the bound is never kept.
//
// One process-wide Worlds serves the package-level MultiplyDealt and every
// entry point built on it; a caller that counts its own worlds — the daemon
// — keeps its own. The zero Worlds is empty and ready to use.
type Worlds struct {
	mu      sync.Mutex
	idle    []*world // oldest first
	built   int64
	dropped int64 // after a failed run, or past the idle bound
}

// worlds serves the package-level entry points.
var worlds Worlds

// take returns an idle world of key k, the one given back last, or builds one.
func (ws *Worlds) take(k worldKey) *world {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for i := len(ws.idle) - 1; i >= 0; i-- {
		if w := ws.idle[i]; w.key == k {
			ws.idle = slices.Delete(ws.idle, i, i+1)
			return w
		}
	}
	ws.built++
	return &world{mw: mpi.NewWorld(k.p, k.cost), key: k, grids: make([]*grid.Grid3D, k.p)}
}

// give returns w once its run has ended: kept idle unless the run broke it or
// it alone is past the bound, then the oldest idle worlds dropped until the
// bound holds.
func (ws *Worlds) give(w *world) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if w.mw.Broken() || w.key.p > maxIdleRanks {
		ws.dropped++
		return
	}
	ws.idle = append(ws.idle, w)
	for idleRanks(ws.idle) > maxIdleRanks {
		ws.idle = slices.Delete(ws.idle, 0, 1)
		ws.dropped++
	}
}

// idleRanks returns the ranks of the worlds in idle together.
func idleRanks(idle []*world) (n int) {
	for _, w := range idle {
		n += w.key.p
	}
	return n
}

// Counts returns the idle worlds, the worlds built and the worlds dropped.
func (ws *Worlds) Counts() (idle int, built, dropped int64) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return len(ws.idle), ws.built, ws.dropped
}

// MultiplyDealt is the package-level MultiplyDealt on a world of ws.
func (ws *Worlds) MultiplyDealt(a, b *Dealt, rc RunConfig, hooks HookFactory, discard bool) ([]*Result, *mpi.Summary, error) {
	procs, sum, err := ws.launch(a, b, rc, func(rank int, p *Proc) (err error) {
		var hook BatchHook
		if hooks != nil {
			hook = hooks(rank)
		}
		p.discard = discard
		_, err = p.BatchedSUMMA3D(hook)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	results := make([]*Result, len(procs))
	for r, p := range procs {
		results[r] = p.res
	}
	return results, sum, nil
}

// launch is the one rank-launch body behind every sparse×sparse host entry
// point: it checks that both operands were made for this run — role, grid,
// layer count, format and inner dimension — takes a world of ws for rc's
// grid and cost model, and runs body on every rank's wired Proc (runRanks),
// on the rank's grid as the world's first run built it, each handed its two
// blocks in place. Whether the blocks were dealt for this run or kept from an
// earlier one (MultiplyDealt) is the caller's business; the ranks only read
// them. Once the world has ended — aborted or not — no rank reads another's
// Merge-Layer outputs or batch pieces, so it gives back what the ranks lent
// and still hold (Proc.lent): the last batch's, a prefetched piece, an
// aborted batch's. A failed run returns no Result, so it releases the ranks'
// too (Proc.res), with the stage products of a batch the abort cut short
// (Proc.stage). The world goes back to ws last, after the summary is taken.
func (ws *Worlds) launch(a, b *Dealt, rc RunConfig, body func(rank int, p *Proc) error) (_ []*Proc, _ *mpi.Summary, err error) {
	q, err := grid.SideFor(rc.P, rc.L)
	if err != nil {
		return nil, nil, err
	}
	if err := a.fits(RoleA, q, rc); err != nil {
		return nil, nil, err
	}
	if err := b.fits(RoleB, q, rc); err != nil {
		return nil, nil, err
	}
	if a.cols != b.rows {
		return nil, nil, fmt.Errorf("core: inner dimension mismatch: A is %dx%d, B is %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	da := distmat.NewADist(a.rows, a.cols, q, rc.L)
	db := distmat.NewBDist(b.rows, b.cols, q, rc.L)
	w := ws.take(worldKey{rc.P, rc.L, rc.Cost})
	defer ws.give(w)
	procs := make([]*Proc, rc.P)
	defer func() {
		for _, p := range procs {
			if p == nil {
				continue
			}
			p.giveBack(math.MaxInt)
			if err != nil {
				p.releaseStage()
				p.res.Release()
			}
		}
	}()
	meters, err := runRanks(w.mw, rc.Trace, func(c *mpi.Comm) error {
		g := w.grids[c.Rank()]
		if g == nil {
			var err error
			if g, err = grid.New(c, rc.L); err != nil {
				return err
			}
			w.grids[c.Rank()] = g
		}
		localA, localB := a.blocks[da.Index(g.I, g.J, g.K)], b.blocks[db.Index(g.I, g.J, g.K)]
		procs[c.Rank()] = SetupLocal(g, da, db, localA, localB, rc.Opts)
		return body(c.Rank(), procs[c.Rank()])
	})
	if err != nil {
		return nil, nil, err
	}
	return procs, mpi.Summarize(meters), nil
}

// runRanks runs body on every rank of w, recording into rec when it is
// non-nil. A rank whose body returns an error aborts the world the way a
// panic does — the other ranks may be waiting for it in a collective — and
// the first rank error is returned, wrapped with its rank; either way w is
// broken.
func runRanks(w *mpi.World, rec *obs.Recorder, body func(c *mpi.Comm) error) (meters []*mpi.Meter, err error) {
	errs := make([]error, w.Size())
	func() {
		defer func() {
			if e := recover(); e != nil && e != errRankFailed {
				panic(e)
			}
		}()
		meters = w.Run(rec, func(c *mpi.Comm) {
			if errs[c.Rank()] = body(c); errs[c.Rank()] != nil {
				panic(errRankFailed)
			}
		})
	}()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", r, err)
		}
	}
	return meters, nil
}

// errRankFailed is the panic value a rank aborts its world with when its body
// returned an error; runRanks returns the error itself.
var errRankFailed = errors.New("core: rank body failed")

// MultiplyRanks runs BatchedSUMMA3D for C = A·B on a kept simulated cluster
// (MultiplyDealt) and returns what the ranks hold when it ends — the per-rank
// results, C still distributed, and the step metering summary — assembling
// nothing.
// Multiply is this run plus the assembly of the global product;
// MultiplyDiscard is this run with every batch dropped once its hook has
// seen it. With no hook the results' pieces are the kernels' chunks on loan:
// the caller calls Release on every result once it is done reading them, or
// never, which costs only the chunks' reuse. A hook's pieces are the
// caller's. The operands are dealt for the call and the deal is released
// when the run has ended, on every path out: no Result refers to a dealt
// block.
func MultiplyRanks(a, b *spmat.CSC, rc RunConfig, hooks HookFactory) ([]*Result, *mpi.Summary, error) {
	da, db, err := deal(a, b, rc)
	if err != nil {
		return nil, nil, err
	}
	defer da.release()
	defer db.release()
	return MultiplyDealt(da, db, rc, hooks, false)
}

// MultiplyDealt is MultiplyRanks — or, with discard, MultiplyDiscard — on
// operands already dealt out (Deal): the entry point for a caller that keeps
// an operand's blocks across runs, as the daemon keeps a resident matrix's.
// The other entry points are Deal followed by this run. It runs on a kept
// world of the process-wide Worlds (Worlds.MultiplyDealt is the same on a
// caller's own). An operand dealt for another role, grid, layer count or
// format than rc's is an error before any rank starts. The operands stay the
// caller's: neither MultiplyDealt releases them.
func MultiplyDealt(a, b *Dealt, rc RunConfig, hooks HookFactory, discard bool) ([]*Result, *mpi.Summary, error) {
	return worlds.MultiplyDealt(a, b, rc, hooks, discard)
}

// Multiply runs BatchedSUMMA3D for C = A·B on a kept simulated cluster and
// returns the assembled global product, the per-rank results, and the step
// metering summary. The assembly is the pieces' last reader: every result is
// released once it is done (Result.Release), so the results hold no Pieces
// and the product is the only copy of C. The deal is MultiplyRanks', released
// before the assembly starts.
func Multiply(a, b *spmat.CSC, rc RunConfig, hooks HookFactory) (*spmat.CSC, []*Result, *mpi.Summary, error) {
	results, summary, err := MultiplyRanks(a, b, rc, hooks)
	if err != nil {
		return nil, nil, nil, err
	}
	assembled, err := AssembleResults(results, a.Rows, b.Cols)
	for _, r := range results {
		r.Release()
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return assembled, results, summary, nil
}

// MultiplyDiscard is Multiply for workloads that consume batches through the
// hook and never need the assembled product (the memory-constrained usage
// the paper targets): every batch is replaced by an empty piece once the
// user's hook has seen it, so no rank ever holds more than one batch of C.
// The piece a hook is handed is borrowed for the duration of the call: it is
// a kernel's scratch — Merge-Fiber's, or on a one-layer grid Merge-Layer's —
// handed back and refilled as soon as the hook
// returns, so a hook reads its piece inside the call and keeps neither the
// piece nor a slice of its arrays. With a nil HookFactory the batches are
// only counted: Result.BatchNNZ holds their sizes, no rank keeps an entry,
// and Result.GlobalCols is nil. The operands are dealt for the call and the
// deal is released when the run has ended, on every path out.
func MultiplyDiscard(a, b *spmat.CSC, rc RunConfig, hooks HookFactory) ([]*Result, *mpi.Summary, error) {
	da, db, err := deal(a, b, rc)
	if err != nil {
		return nil, nil, err
	}
	defer da.release()
	defer db.release()
	return MultiplyDealt(da, db, rc, hooks, true)
}
