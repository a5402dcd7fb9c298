package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/distmat"
	"repro/internal/grid"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

var testCM = mpi.CostModel{AlphaSec: 1e-6, BetaSecPerByte: 1e-9}

func randomMat(t testing.TB, rows, cols int32, nnz int, seed int64) *spmat.CSC {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := make([]spmat.Triple, 0, nnz)
	for i := 0; i < nnz; i++ {
		ts = append(ts, spmat.Triple{
			Row: int32(rng.Intn(int(rows))),
			Col: int32(rng.Intn(int(cols))),
			Val: float64(rng.Intn(9) + 1),
		})
	}
	m, err := spmat.FromTriples(rows, cols, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Setup wires a Proc on one rank that holds the global operands: the rank
// cuts its own two pieces out (distmat's LocalMat, one pass over the piece's
// columns). A is rows×inner, B is inner×cols. It is the self-contained form
// for a caller already inside a rank; the host entry points (Multiply,
// MultiplyDiscard, SymbolicBatches) instead split both operands once for all
// ranks and hand each its pieces through SetupLocal: ranks that share a
// column range would each walk it, A q times and B q·l times in all.
func Setup(g *grid.Grid3D, a, b *spmat.CSC, opts Options) (*Proc, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("core: inner dimension mismatch: A is %v, B is %v", a, b)
	}
	da := distmat.NewADist(a.Rows, a.Cols, g.Q, g.L)
	db := distmat.NewBDist(b.Rows, b.Cols, g.Q, g.L)
	return SetupLocal(g, da, db,
		da.LocalMat(a, g.I, g.J, g.K, opts.Format),
		db.LocalMat(b, g.I, g.J, g.K, opts.Format), opts), nil
}

// CSC returns the rank's output as one CSC matrix, its columns in batch
// order (GlobalCols). A lone CSC piece is returned itself; anything else is
// inflated and concatenated, which is the copy AssembleResults and
// ProductSegments exist to avoid.
func (r *Result) CSC() *spmat.CSC {
	if len(r.Pieces) == 1 {
		return r.Pieces[0].ToCSC()
	}
	parts := make([]*spmat.CSC, len(r.Pieces))
	for i, pc := range r.Pieces {
		parts[i] = pc.ToCSC()
	}
	return spmat.HCat(parts)
}

// runDistributed multiplies A·B on p ranks in l layers and returns the
// assembled global result, per-rank results, and the metering summary.
func runDistributed(t testing.TB, p, l int, a, b *spmat.CSC, opts Options, hook BatchHook) (*spmat.CSC, []*Result, *mpi.Summary) {
	t.Helper()
	results := make([]*Result, p)
	var mu sync.Mutex
	var firstErr error
	meters := mpi.Run(p, testCM, func(c *mpi.Comm) {
		g, err := grid.New(c, l)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		proc, err := Setup(g, a, b, opts)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		res, err := proc.BatchedSUMMA3D(hook)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		results[c.Rank()] = res
	})
	if firstErr != nil {
		t.Fatalf("distributed run failed: %v", firstErr)
	}
	assembled, err := AssembleResults(results, a.Rows, b.Cols)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return assembled, results, mpi.Summarize(meters)
}

func TestBatched3DMatchesSerialAcrossShapes(t *testing.T) {
	a := randomMat(t, 48, 48, 400, 1)
	b := randomMat(t, 48, 48, 400, 2)
	want := localmm.Multiply(a, b, semiring.PlusTimes())
	for _, cfg := range []struct{ p, l, b int }{
		{1, 1, 1},
		{4, 1, 1},
		{4, 4, 1}, // 1x1 layers
		{8, 2, 1},
		{16, 4, 1},
		{16, 1, 1},
		{4, 1, 2},
		{8, 2, 3},
		{16, 4, 4},
		{16, 4, 7},
	} {
		got, results, _ := runDistributed(t, cfg.p, cfg.l, a, b,
			Options{ForceBatches: cfg.b}, nil)
		if !spmat.Equal(got, want) {
			t.Errorf("p=%d l=%d b=%d: distributed result differs from serial", cfg.p, cfg.l, cfg.b)
		}
		for r, res := range results {
			if res.Batches < 1 {
				t.Errorf("p=%d l=%d b=%d rank %d: batches=%d", cfg.p, cfg.l, cfg.b, r, res.Batches)
			}
		}
	}
}

func TestBatched3DRaggedShapes(t *testing.T) {
	// Dimensions deliberately not divisible by q or l.
	a := randomMat(t, 53, 47, 350, 3)
	b := randomMat(t, 47, 59, 350, 4)
	want := localmm.Multiply(a, b, semiring.PlusTimes())
	for _, cfg := range []struct{ p, l, b int }{
		{4, 1, 1}, {8, 2, 2}, {16, 4, 3}, {9, 1, 2}, {18, 2, 5},
	} {
		got, _, _ := runDistributed(t, cfg.p, cfg.l, a, b, Options{ForceBatches: cfg.b}, nil)
		if !spmat.Equal(got, want) {
			t.Errorf("p=%d l=%d b=%d: ragged distributed result differs", cfg.p, cfg.l, cfg.b)
		}
	}
}

func TestBatched3DAATRectangular(t *testing.T) {
	// The BELLA/PASTIS pattern: A is reads×kmers (hypersparse, rectangular),
	// multiply A·Aᵀ.
	a := randomMat(t, 40, 120, 240, 5)
	at := spmat.Transpose(a)
	want := localmm.Multiply(a, at, semiring.PlusTimes())
	got, _, _ := runDistributed(t, 8, 2, a, at, Options{ForceBatches: 2}, nil)
	if !spmat.Equal(got, want) {
		t.Error("AAT distributed result differs")
	}
}

func TestAllKernelMergerCombinations(t *testing.T) {
	a := randomMat(t, 36, 36, 250, 6)
	b := randomMat(t, 36, 36, 250, 7)
	want := localmm.Multiply(a, b, semiring.PlusTimes())
	for _, k := range []localmm.Kernel{localmm.KernelHashUnsorted, localmm.KernelHashSorted, localmm.KernelHeap, localmm.KernelHybrid} {
		for _, mg := range []localmm.Merger{localmm.MergerHash, localmm.MergerHeap} {
			got, _, _ := runDistributed(t, 8, 2, a, b,
				Options{ForceBatches: 2, Kernel: k, Merger: mg}, nil)
			if !spmat.Equal(got, want) {
				t.Errorf("kernel=%v merger=%v: wrong result", k, mg)
			}
		}
	}
}

func TestOutputAlwaysSorted(t *testing.T) {
	a := randomMat(t, 32, 32, 200, 8)
	b := randomMat(t, 32, 32, 200, 9)
	_, results, _ := runDistributed(t, 4, 1, a, b, Options{ForceBatches: 2}, nil)
	for r, res := range results {
		c := res.CSC()
		if !c.SortedCols {
			t.Errorf("rank %d: final output not sorted", r)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

func TestSemiringsDistributed(t *testing.T) {
	a := randomMat(t, 30, 30, 150, 10)
	for _, sr := range []*semiring.Semiring{semiring.MinPlus(), semiring.BoolOrAnd(), semiring.PlusPairs()} {
		want := localmm.Multiply(a, a, sr)
		got, _, _ := runDistributed(t, 4, 1, a, a, Options{Semiring: sr, ForceBatches: 2}, nil)
		if !spmat.Equal(got, want) {
			t.Errorf("semiring %s: distributed result differs", sr.Name)
		}
	}
}

func TestSymbolicChoosesBatches(t *testing.T) {
	a := randomMat(t, 64, 64, 800, 11)
	want := localmm.Multiply(a, a, semiring.PlusTimes())
	// Budget chosen so inputs fit but intermediates need several batches.
	inputBytes := int64(24) * (2 * a.NNZ())
	got, results, _ := runDistributed(t, 4, 1, a, a,
		Options{MemBytes: inputBytes*4 + 4096}, nil)
	if !spmat.Equal(got, want) {
		t.Error("memory-constrained result differs")
	}
	b := results[0].Batches
	if b < 2 {
		t.Errorf("expected multiple batches under a tight budget, got %d", b)
	}
	for r, res := range results {
		if res.SymbolicB != results[0].SymbolicB {
			t.Errorf("rank %d: symbolic b=%d differs from rank 0's %d", r, res.SymbolicB, results[0].SymbolicB)
		}
	}
}

func TestUnlimitedMemorySingleBatch(t *testing.T) {
	a := randomMat(t, 32, 32, 300, 12)
	_, results, _ := runDistributed(t, 4, 1, a, a, Options{}, nil)
	if results[0].Batches != 1 {
		t.Errorf("unconstrained run used %d batches", results[0].Batches)
	}
	if results[0].SymbolicB != 1 {
		t.Errorf("symbolic chose %d", results[0].SymbolicB)
	}
}

func TestSymbolicErrorWhenInputsDontFit(t *testing.T) {
	a := randomMat(t, 32, 32, 300, 13)
	p := 4
	results := make([]error, p)
	mpi.Run(p, testCM, func(c *mpi.Comm) {
		g, _ := grid.New(c, 1)
		proc, err := Setup(g, a, a, Options{MemBytes: 100}) // absurdly small
		if err != nil {
			t.Error(err)
			return
		}
		_, err = proc.BatchedSUMMA3D(nil)
		results[c.Rank()] = err
	})
	for r, err := range results {
		if err == nil {
			t.Errorf("rank %d: expected memory error", r)
		}
	}
}

func TestBatchingReducesPeakMemory(t *testing.T) {
	a := randomMat(t, 64, 64, 900, 14)
	_, res1, _ := runDistributed(t, 4, 1, a, a, Options{ForceBatches: 1}, nil)
	_, res8, _ := runDistributed(t, 4, 1, a, a, Options{ForceBatches: 8}, nil)
	peak := func(rs []*Result) int64 {
		var mx int64
		for _, r := range rs {
			if r.PeakMemBytes > mx {
				mx = r.PeakMemBytes
			}
		}
		return mx
	}
	p1, p8 := peak(res1), peak(res8)
	if !(p8 < p1) {
		t.Errorf("batching did not reduce peak memory: b=1 %d bytes, b=8 %d bytes", p1, p8)
	}
}

func TestBatchHookPruning(t *testing.T) {
	a := randomMat(t, 40, 40, 400, 15)
	// Hook keeps only values > 20 (column-wise pruning as HipMCL does).
	hook := func(batch int, cols []int32, c *spmat.CSC) *spmat.CSC {
		pruned := c.Clone()
		pruned.Filter(func(_, _ int32, v float64) bool { return v > 20 })
		return pruned
	}
	got, _, _ := runDistributed(t, 4, 1, a, a, Options{ForceBatches: 4}, hook)
	want := localmm.Multiply(a, a, semiring.PlusTimes())
	want.Filter(func(_, _ int32, v float64) bool { return v > 20 })
	if !spmat.Equal(got, want) {
		t.Error("hook-pruned result differs from pruned serial result")
	}
}

func TestBatchHookSeesEveryBatchOnce(t *testing.T) {
	a := randomMat(t, 32, 32, 250, 16)
	const p, b = 4, 3
	counts := make([][]int, p)
	var mu sync.Mutex
	colsSeen := make([]map[int32]bool, p)
	mpi.Run(p, testCM, func(c *mpi.Comm) {
		g, _ := grid.New(c, 1)
		proc, _ := Setup(g, a, a, Options{ForceBatches: b})
		counts[c.Rank()] = make([]int, b)
		colsSeen[c.Rank()] = map[int32]bool{}
		_, err := proc.BatchedSUMMA3D(func(batch int, cols []int32, m *spmat.CSC) *spmat.CSC {
			mu.Lock()
			counts[c.Rank()][batch]++
			for _, col := range cols {
				colsSeen[c.Rank()][col] = true
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	for r := 0; r < p; r++ {
		for t2 := 0; t2 < b; t2++ {
			if counts[r][t2] != 1 {
				t.Errorf("rank %d batch %d seen %d times", r, t2, counts[r][t2])
			}
		}
	}
	// Union of columns across ranks in one process column covers the block.
	all := map[int32]bool{}
	for r := 0; r < p; r++ {
		for c := range colsSeen[r] {
			all[c] = true
		}
	}
	if len(all) != 32 {
		t.Errorf("hooks saw %d distinct columns, want 32", len(all))
	}
}

func TestHookColumnCountMismatchRejected(t *testing.T) {
	a := randomMat(t, 16, 16, 80, 17)
	errs := make([]error, 4)
	mpi.Run(4, testCM, func(c *mpi.Comm) {
		g, _ := grid.New(c, 1)
		proc, _ := Setup(g, a, a, Options{ForceBatches: 2})
		_, err := proc.BatchedSUMMA3D(func(_ int, _ []int32, m *spmat.CSC) *spmat.CSC {
			return spmat.New(m.Rows, m.Cols+1)
		})
		errs[c.Rank()] = err
	})
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d: hook with wrong shape accepted", r)
		}
	}
}

// TestHookRowCountChangeRejected: a piece a hook hands back is kept as it is
// and placed by its rank's RowOffset, so one with more rows than the rank's
// block would put entries in another rank's row block. Rank 0's hook here
// returns one entry at row rows+1 of a 2·rows-row piece; accepted, the product
// failed Validate with "column 0 not strictly sorted (row 64 after 65)".
func TestHookRowCountChangeRejected(t *testing.T) {
	a := randomMat(t, 128, 128, 900, 20)
	hooks := func(rank int) BatchHook {
		if rank != 0 {
			return nil
		}
		return func(_ int, _ []int32, m *spmat.CSC) *spmat.CSC {
			grown, err := spmat.FromTriples(2*m.Rows, m.Cols, []spmat.Triple{{Row: m.Rows + 1, Col: 0, Val: 7}}, nil)
			if err != nil {
				panic(err)
			}
			return grown
		}
	}
	for _, batches := range []int{1, 2} {
		rc := RunConfig{P: 4, L: 1, Cost: testCM, Opts: Options{ForceBatches: batches}}
		_, _, _, err := Multiply(a, a, rc, hooks)
		if err == nil || !strings.Contains(err.Error(), "core: batch hook changed row count") {
			t.Errorf("b=%d: got error %v, want the hook's row-count error", batches, err)
		}
	}
}

// TestOneRankHookErrorAbortsTheRun: a hook that fails on one rank only must
// end the whole multiply with that rank's error, under both schedules, and
// leave no rank goroutine behind — not strand the other ranks at their next
// collective.
func TestOneRankHookErrorAbortsTheRun(t *testing.T) {
	a := randomMat(t, 32, 32, 250, 19)
	before := runtime.NumGoroutine()
	hooks := func(rank int) BatchHook {
		if rank != 0 {
			return nil
		}
		return func(_ int, _ []int32, m *spmat.CSC) *spmat.CSC { return spmat.New(m.Rows, m.Cols+1) }
	}
	for _, pipeline := range []bool{false, true} {
		rc := RunConfig{P: 4, L: 1, Cost: testCM, Opts: Options{ForceBatches: 2, Pipeline: pipeline}}
		done := make(chan error, 1)
		go func() {
			_, _, err := MultiplyRanks(a, a, rc, hooks)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.HasPrefix(err.Error(), "core: rank 0: core: batch hook changed column count") {
				t.Errorf("pipeline=%v: got error %v, want rank 0's hook error", pipeline, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pipeline=%v: the multiply had not returned 5 s after rank 0's hook failed", pipeline)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before the failed runs, %d after", before, n)
	}
}

func TestSetupRejectsIncompatibleShapes(t *testing.T) {
	mpi.Run(4, testCM, func(c *mpi.Comm) {
		g, _ := grid.New(c, 1)
		if _, err := Setup(g, spmat.New(8, 9), spmat.New(10, 8), Options{}); err == nil {
			t.Error("shape mismatch accepted")
		}
	})
}

func TestSUMMA3DSingleBatch(t *testing.T) {
	a := randomMat(t, 32, 32, 250, 18)
	want := localmm.Multiply(a, a, semiring.PlusTimes())
	results := make([]*Result, 8)
	mpi.Run(8, testCM, func(c *mpi.Comm) {
		g, _ := grid.New(c, 2)
		proc, _ := Setup(g, a, a, Options{ForceBatches: 1})
		res, err := proc.BatchedSUMMA3D(nil)
		if err != nil {
			t.Error(err)
			return
		}
		results[c.Rank()] = res
	})
	got, err := AssembleResults(results, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !spmat.Equal(got, want) {
		t.Error("SUMMA3D result differs")
	}
	if results[0].Batches != 1 {
		t.Errorf("SUMMA3D used %d batches", results[0].Batches)
	}
}

func TestGlobalColsPartitionOutput(t *testing.T) {
	// Across all ranks of one process-column/layer set, GlobalCols must
	// cover every output column exactly once per row block.
	a := randomMat(t, 48, 48, 400, 92)
	_, results, _ := runDistributed(t, 16, 4, a, a, Options{ForceBatches: 3}, nil)
	// Count (rowBlock, col) coverage: each global column must appear in
	// exactly q row blocks (every rank of a process column holds it).
	cover := map[int32]int{}
	for _, r := range results {
		for _, c := range r.GlobalCols {
			cover[c]++
		}
	}
	if len(cover) != 48 {
		t.Fatalf("covered %d distinct columns, want 48", len(cover))
	}
	for c, n := range cover {
		if n != 2 { // q = sqrt(16/4) = 2 row blocks
			t.Errorf("column %d covered %d times, want 2", c, n)
		}
	}
}

func TestSetupLocalPath(t *testing.T) {
	// SetupLocal must produce the same result as Setup when handed the same
	// local pieces.
	a := randomMat(t, 32, 32, 250, 93)
	want := localmm.Multiply(a, a, semiring.PlusTimes())
	results := make([]*Result, 4)
	mpi.Run(4, testCM, func(c *mpi.Comm) {
		g, _ := grid.New(c, 1)
		da := distmat.NewADist(32, 32, g.Q, g.L)
		db := distmat.NewBDist(32, 32, g.Q, g.L)
		proc := SetupLocal(g, da, db, da.Local(a, g.I, g.J, g.K), db.Local(a, g.I, g.J, g.K),
			Options{ForceBatches: 2})
		res, err := proc.BatchedSUMMA3D(nil)
		if err != nil {
			t.Error(err)
			return
		}
		results[c.Rank()] = res
	})
	got, err := AssembleResults(results, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !spmat.Equal(got, want) {
		t.Error("SetupLocal result differs")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// Same inputs and configuration → byte-identical outputs and batch
	// decisions (modeled times are deterministic too, but compute is not).
	a := randomMat(t, 40, 40, 300, 94)
	mem := int64(24)*(8*a.NNZ()) + 24*localmm.Flops(a, a)/2
	r1, res1, _ := runDistributed(t, 4, 1, a, a, Options{MemBytes: mem}, nil)
	r2, res2, _ := runDistributed(t, 4, 1, a, a, Options{MemBytes: mem}, nil)
	if !spmat.Equal(r1, r2) {
		t.Error("results differ across identical runs")
	}
	if res1[0].Batches != res2[0].Batches || res1[0].SymbolicB != res2[0].SymbolicB {
		t.Error("batch decisions differ across identical runs")
	}
}

// TestDistributedEqualsSerialProperty is the repository's central invariant
// as a property test: for random shapes, grids, layer counts, and batch
// counts, BatchedSUMMA3D equals the serial product.
func TestDistributedEqualsSerialProperty(t *testing.T) {
	grids := []struct{ p, l int }{{1, 1}, {4, 1}, {4, 4}, {8, 2}, {16, 4}, {9, 1}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int32(rng.Intn(40) + 8)
		inner := int32(rng.Intn(40) + 8)
		cols := int32(rng.Intn(40) + 8)
		a := randomMat(t, rows, inner, rng.Intn(300), seed+1)
		b := randomMat(t, inner, cols, rng.Intn(300), seed+2)
		g := grids[rng.Intn(len(grids))]
		batches := rng.Intn(4) + 1
		want := localmm.Multiply(a, b, semiring.PlusTimes())
		got, _, _ := runDistributed(t, g.p, g.l, a, b, Options{ForceBatches: batches}, nil)
		return spmat.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
