package core

import (
	"errors"
	"fmt"

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
// time the engine copies an operand).
func Deal(m *spmat.CSC, role Role, rc RunConfig) (*Dealt, error) {
	q, err := grid.SideFor(rc.P, rc.L)
	if err != nil {
		return nil, err
	}
	d := &Dealt{role: role, rows: m.Rows, cols: m.Cols, q: q, l: rc.L, format: rc.Opts.Format}
	if role == RoleA {
		d.blocks = distmat.NewADist(m.Rows, m.Cols, q, rc.L).Split(m, d.format)
	} else {
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

// deal deals a out as A and b as B on rc's grid.
func deal(a, b *spmat.CSC, rc RunConfig) (da, db *Dealt, err error) {
	if da, err = Deal(a, RoleA, rc); err == nil {
		db, err = Deal(b, RoleB, rc)
	}
	return da, db, err
}

// launch is the one rank-launch body behind every sparse×sparse host entry
// point: it checks that both operands were dealt for this run — role, grid,
// layer count, format and inner dimension — and runs body on every rank's
// wired Proc (runRanks), each handed its two blocks in place. Whether the
// blocks were dealt for this run or kept from an earlier one (MultiplyDealt)
// is the caller's business; the ranks only read them. Once the world has
// ended — aborted or not — no rank reads another's Merge-Layer outputs, so it
// returns the loans the ranks' last batches left (Proc.lent).
func launch(a, b *Dealt, rc RunConfig, body func(rank int, p *Proc) error) ([]*mpi.Meter, error) {
	q, err := grid.SideFor(rc.P, rc.L)
	if err != nil {
		return nil, err
	}
	if err := a.fits(RoleA, q, rc); err != nil {
		return nil, err
	}
	if err := b.fits(RoleB, q, rc); err != nil {
		return nil, err
	}
	if a.cols != b.rows {
		return nil, fmt.Errorf("core: inner dimension mismatch: A is %dx%d, B is %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	da := distmat.NewADist(a.rows, a.cols, q, rc.L)
	db := distmat.NewBDist(b.rows, b.cols, q, rc.L)
	procs := make([]*Proc, rc.P)
	defer func() {
		for _, p := range procs {
			if p != nil {
				returnLoans(p.lent)
			}
		}
	}()
	return runRanks(rc, func(c *mpi.Comm) error {
		g, err := grid.New(c, rc.L)
		if err != nil {
			return err
		}
		localA, localB := a.blocks[da.Index(g.I, g.J, g.K)], b.blocks[db.Index(g.I, g.J, g.K)]
		procs[c.Rank()] = SetupLocal(g, da, db, localA, localB, rc.Opts)
		return body(c.Rank(), procs[c.Rank()])
	})
}

// runRanks starts a fresh rc.P-rank world and runs body on every rank. A rank
// whose body returns an error aborts the world the way a panic does — the
// other ranks may be waiting for it in a collective — and the first rank
// error is returned, wrapped with its rank.
func runRanks(rc RunConfig, body func(c *mpi.Comm) error) (meters []*mpi.Meter, err error) {
	errs := make([]error, rc.P)
	func() {
		defer func() {
			if e := recover(); e != nil && e != errRankFailed {
				panic(e)
			}
		}()
		meters = mpi.RunTraced(rc.P, rc.Cost, rc.Trace, func(c *mpi.Comm) {
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

// MultiplyRanks runs BatchedSUMMA3D for C = A·B on a fresh simulated cluster
// and returns what the ranks hold when it ends — the per-rank results, C
// still distributed, and the step metering summary — assembling nothing.
// Multiply is this run plus the assembly of the global product;
// MultiplyDiscard is this run with every batch dropped once its hook has
// seen it.
func MultiplyRanks(a, b *spmat.CSC, rc RunConfig, hooks HookFactory) ([]*Result, *mpi.Summary, error) {
	da, db, err := deal(a, b, rc)
	if err != nil {
		return nil, nil, err
	}
	return MultiplyDealt(da, db, rc, hooks, false)
}

// MultiplyDealt is MultiplyRanks — or, with discard, MultiplyDiscard — on
// operands already dealt out (Deal): the entry point for a caller that keeps
// an operand's blocks across runs, as the daemon keeps a resident matrix's.
// The other entry points are Deal followed by this run. An operand dealt for
// another role, grid, layer count or format than rc's is an error before any
// rank starts.
func MultiplyDealt(a, b *Dealt, rc RunConfig, hooks HookFactory, discard bool) ([]*Result, *mpi.Summary, error) {
	results := make([]*Result, rc.P)
	meters, err := launch(a, b, rc, func(rank int, p *Proc) error {
		var hook BatchHook
		if hooks != nil {
			hook = hooks(rank)
		}
		p.discard = discard
		res, err := p.BatchedSUMMA3D(hook)
		results[rank] = res
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return results, mpi.Summarize(meters), nil
}

// Multiply runs BatchedSUMMA3D for C = A·B on a fresh simulated cluster and
// returns the assembled global product, the per-rank results, and the step
// metering summary.
func Multiply(a, b *spmat.CSC, rc RunConfig, hooks HookFactory) (*spmat.CSC, []*Result, *mpi.Summary, error) {
	results, summary, err := MultiplyRanks(a, b, rc, hooks)
	if err != nil {
		return nil, nil, nil, err
	}
	assembled, err := AssembleResults(results, a.Rows, b.Cols)
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
// a kernel's scratch — Merge-Fiber's, or on a one-layer grid Merge-Layer's or
// the lone stage product's — handed back and refilled as soon as the hook
// returns, so a hook reads its piece inside the call and keeps neither the
// piece nor a slice of its arrays. With a nil HookFactory the batches are
// only counted: Result.BatchNNZ holds their sizes, and no rank keeps an entry.
func MultiplyDiscard(a, b *spmat.CSC, rc RunConfig, hooks HookFactory) ([]*Result, *mpi.Summary, error) {
	da, db, err := deal(a, b, rc)
	if err != nil {
		return nil, nil, err
	}
	return MultiplyDealt(da, db, rc, hooks, true)
}
