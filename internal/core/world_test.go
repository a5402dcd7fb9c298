package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/spmat"
)

// worldOutcome is everything a run hands back that does not depend on the
// host's clock: the assembled product of a kept run, every rank's result
// fields, and every step's bytes, messages and work units.
type worldOutcome struct {
	product *spmat.CSC
	ranks   []Result
	steps   map[string][3]int64
}

func outcomeOf(t *testing.T, results []*Result, sum *mpi.Summary, rows, cols int32, discard bool) worldOutcome {
	t.Helper()
	out := worldOutcome{steps: map[string][3]int64{}}
	if !discard {
		c, err := AssembleResults(results, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		out.product = c
	}
	for _, r := range results {
		r.Release()
		out.ranks = append(out.ranks, Result{
			GlobalCols: r.GlobalCols, RowOffset: r.RowOffset, Batches: r.Batches, SymbolicB: r.SymbolicB,
			LocalFlops: r.LocalFlops, UnmergedNNZ: r.UnmergedNNZ, MergedLayerNNZ: r.MergedLayerNNZ,
			PeakMemBytes: r.PeakMemBytes, BatchNNZ: r.BatchNNZ,
		})
	}
	for _, cat := range sum.Categories() {
		st := sum.Step(cat)
		out.steps[cat] = [3]int64{st.Bytes, st.Messages, st.WorkUnits}
	}
	return out
}

// TestKeptWorldRunsLikeFreshWorlds: a series of different multiplies on one
// kept world — other operands, formats, schedules, batch counts, kept and
// discarded, traced and not — gives every run's product, rank results and
// metering exactly as the same run on a world built for it, and the world
// builds each rank's grid once.
func TestKeptWorldRunsLikeFreshWorlds(t *testing.T) {
	a := randomMat(t, 48, 40, 380, 301)
	b := randomMat(t, 40, 56, 420, 302)
	base := RunConfig{P: 16, L: 4, Cost: testCM}
	var kept Worlds
	var grids []*grid.Grid3D
	for i, tc := range []struct {
		opts    Options
		x, y    *spmat.CSC
		discard bool
		trace   bool
	}{
		{Options{ForceBatches: 2}, a, b, false, false},
		{Options{ForceBatches: 3, Pipeline: true, Format: spmat.FormatDCSC}, a, b, true, true},
		{Options{ForceBatches: 1, Format: spmat.FormatDCSC, SparseComm: mpi.SparseAuto}, b, spmat.Transpose(b), false, true},
		{Options{MemBytes: 24 * 4000, RunSymbolic: true, Pipeline: true, Channels: 2}, a, spmat.Transpose(a), true, false},
		{Options{ForceBatches: 2}, a, b, false, false},
	} {
		rc := base
		rc.Opts = tc.opts
		if tc.trace {
			rc.Trace = obs.NewRecorder(rc.P)
		}
		da, err := Deal(tc.x, RoleA, rc)
		if err != nil {
			t.Fatal(err)
		}
		db, err := Deal(tc.y, RoleB, rc)
		if err != nil {
			t.Fatal(err)
		}
		res, sum, err := kept.MultiplyDealt(da, db, rc, nil, tc.discard)
		if err != nil {
			t.Fatalf("run %d on the kept world: %v", i, err)
		}
		got := outcomeOf(t, res, sum, tc.x.Rows, tc.y.Cols, tc.discard)
		keptTrace := rc.Trace
		if tc.trace {
			rc.Trace = obs.NewRecorder(rc.P)
		}
		res, sum, err = new(Worlds).MultiplyDealt(da, db, rc, nil, tc.discard)
		if err != nil {
			t.Fatalf("run %d on a fresh world: %v", i, err)
		}
		want := outcomeOf(t, res, sum, tc.x.Rows, tc.y.Cols, tc.discard)
		if !tc.discard && !spmat.Equal(got.product, want.product) {
			t.Errorf("run %d: the kept world's product differs from a fresh world's", i)
		}
		if !reflect.DeepEqual(got.ranks, want.ranks) {
			t.Errorf("run %d: the kept world's rank results differ from a fresh world's", i)
		}
		if !reflect.DeepEqual(got.steps, want.steps) {
			t.Errorf("run %d: the kept world metered\n%v\na fresh world\n%v", i, got.steps, want.steps)
		}
		if tc.trace && len(keptTrace.Spans()) != len(rc.Trace.Spans()) {
			t.Errorf("run %d: the kept world traced %d spans, a fresh world %d", i, len(keptTrace.Spans()), len(rc.Trace.Spans()))
		}
		if idle, built, _ := kept.Counts(); idle != 1 || built != 1 {
			t.Fatalf("run %d: %d worlds built, %d idle; one world serves every run", i, built, idle)
		}
		if w := kept.idle[0]; grids == nil {
			grids = append(grids, w.grids...)
		} else if !reflect.DeepEqual(grids, w.grids) {
			t.Fatalf("run %d rebuilt the kept world's grids", i)
		}
	}
}

// costSeq numbers the cost models oneShotCost hands out.
var costSeq atomic.Int64

// oneShotCost returns testCM with a latency no other call in the process
// charges, so the one-shot calls a test makes under it run on worlds of its
// own in the process-wide Worlds, which every test of the package shares.
func oneShotCost() mpi.CostModel {
	cm := testCM
	cm.AlphaSec *= 1 + float64(costSeq.Add(1))/1024
	return cm
}

// settleGoroutines waits until no more than want goroutines run: a run's rank
// goroutines unwind just after it returns.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines between calls, %d before", runtime.NumGoroutine(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWorldRunsOnlyItsGrid: back-to-back one-shot calls — every entry point —
// on one rank count, layer count and cost model build one world between them;
// another layer count or cost model builds another, each idle world keeps the
// grids of its own layer count, and no idle world holds a goroutine. A rank
// count no grid has is an error before any world is built.
func TestWorldRunsOnlyItsGrid(t *testing.T) {
	a := randomMat(t, 24, 24, 120, 303)
	base := RunConfig{P: 16, L: 4, Cost: oneShotCost(), Opts: Options{ForceBatches: 1}}
	layers, cost := base, base
	layers.L = 1
	cost.Cost = oneShotCost()
	calls := []func(rc RunConfig) error{
		func(rc RunConfig) error { _, _, _, err := Multiply(a, a, rc, nil); return err },
		func(rc RunConfig) error { _, _, err := MultiplyDiscard(a, a, rc, nil); return err },
		func(rc RunConfig) error {
			ranks, _, err := MultiplyRanks(a, a, rc, nil)
			for _, r := range ranks {
				r.Release()
			}
			return err
		},
		func(rc RunConfig) error { _, err := SymbolicBatches(a, a, rc); return err },
	}
	goroutines := -1
	for i, c := range []struct {
		rc     RunConfig
		builds int64
	}{
		{base, 1}, {base, 0}, {base, 0}, {layers, 1}, {base, 0}, {cost, 1}, {layers, 0}, {cost, 0}, {base, 0},
	} {
		_, before, _ := worlds.Counts()
		if err := calls[i%len(calls)](c.rc); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if _, after, _ := worlds.Counts(); after-before != c.builds {
			t.Errorf("call %d (l=%d): %d worlds built, want %d", i, c.rc.L, after-before, c.builds)
		}
		if goroutines < 0 {
			goroutines = runtime.NumGoroutine()
		}
		settleGoroutines(t, goroutines)
	}
	worlds.mu.Lock()
	for _, w := range worlds.idle {
		for r, g := range w.grids {
			if g != nil && (g.L != w.key.l || g.World.Size() != w.key.p) {
				t.Errorf("a world of %d ranks in %d layers holds rank %d's grid of %d ranks in %d layers", w.key.p, w.key.l, r, g.World.Size(), g.L)
			}
		}
	}
	worlds.mu.Unlock()
	_, before, _ := worlds.Counts()
	if _, _, _, err := Multiply(a, a, RunConfig{P: 12, L: 1, Cost: testCM}, nil); err == nil {
		t.Error("a multiply on 12 ranks in one layer ran")
	}
	if _, after, _ := worlds.Counts(); after != before {
		t.Error("a refused call built a world")
	}
}

// TestFailedRunBreaksTheWorld: a one-shot call one rank's hook fails aborts
// its world, which is dropped, never kept; the next call on that grid builds
// a new one, and its product is bit-identical to a cold call's.
func TestFailedRunBreaksTheWorld(t *testing.T) {
	a := randomMat(t, 32, 32, 250, 304)
	rc := RunConfig{P: 4, L: 1, Cost: oneShotCost(), Opts: Options{ForceBatches: 2}}
	cold := rc
	cold.Cost = oneShotCost()
	want, _, _, err := Multiply(a, a, cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Multiply(a, a, rc, nil); err != nil {
		t.Fatal(err)
	}
	bad := func(rank int) BatchHook {
		if rank != 0 {
			return nil
		}
		return func(_ int, _ []int32, m *spmat.CSC) *spmat.CSC { return spmat.New(m.Rows+1, m.Cols) }
	}
	idle, built, dropped := worlds.Counts()
	if _, _, err := MultiplyDiscard(a, a, rc, bad); err == nil || !strings.Contains(err.Error(), "row count") {
		t.Fatalf("a failing hook: error %v", err)
	}
	if i, b, d := worlds.Counts(); i != idle-1 || b != built || d != dropped+1 {
		t.Fatalf("a failed call: idle %d → %d, built %d → %d, dropped %d → %d; its world must be dropped", idle, i, built, b, dropped, d)
	}
	got, _, _, err := Multiply(a, a, rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, b, _ := worlds.Counts(); b != built+1 {
		t.Errorf("the call after a failed one built %d worlds, want 1", b-built)
	}
	if !bytes.Equal(got.Serialize(), want.Serialize()) {
		t.Error("the call after a failed one returned another product than a cold call")
	}
}

// TestConcurrentOneShotCallsNeverShareAWorld: one-shot calls on one grid that
// run at once — every call's rank 0 waits in its hook until all calls are in
// theirs — each build a world of their own, and each gives its product.
func TestConcurrentOneShotCallsNeverShareAWorld(t *testing.T) {
	const callers = 4
	a := randomMat(t, 32, 32, 250, 306)
	rc := RunConfig{P: 4, L: 1, Cost: oneShotCost(), Opts: Options{ForceBatches: 1}}
	cold := rc
	cold.Cost = oneShotCost()
	want, _, _, err := Multiply(a, a, cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	var inside, done sync.WaitGroup
	inside.Add(callers)
	hooks := func(rank int) BatchHook {
		if rank != 0 {
			return nil
		}
		return func(_ int, _ []int32, _ *spmat.CSC) *spmat.CSC {
			inside.Done()
			inside.Wait()
			return nil
		}
	}
	_, built, _ := worlds.Counts()
	products := make([]*spmat.CSC, callers)
	errs := make([]error, callers)
	for i := range callers {
		done.Add(1)
		go func() {
			defer done.Done()
			products[i], _, _, errs[i] = Multiply(a, a, rc, hooks)
		}()
	}
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if !bytes.Equal(products[i].Serialize(), want.Serialize()) {
			t.Errorf("caller %d: the product differs from a lone call's", i)
		}
	}
	if _, b, _ := worlds.Counts(); b != built+callers {
		t.Errorf("%d calls at once built %d worlds, want one each", callers, b-built)
	}
}

// TestIdleWorldsStayWithinTheBound: worlds given back past maxIdleRanks idle
// ranks drop the oldest first, so the idle ranks stay within the bound, and
// a world larger than the bound alone is never kept.
func TestIdleWorldsStayWithinTheBound(t *testing.T) {
	var ws Worlds
	taken := make([]*world, 5) // 5 × 1024 ranks, one over the bound
	for i := range taken {
		taken[i] = ws.take(worldKey{p: 1024, l: 1, cost: testCM})
	}
	for i, w := range taken {
		ws.give(w)
		if n := idleRanks(ws.idle); n > maxIdleRanks {
			t.Fatalf("after %d worlds given back: %d idle ranks, bound %d", i+1, n, maxIdleRanks)
		}
	}
	if !slices.Equal(ws.idle, taken[1:]) {
		t.Error("the idle worlds are not the four given back last, oldest first")
	}
	big := ws.take(worldKey{p: 65 * 65, l: 1, cost: testCM})
	ws.give(big)
	if idle, built, dropped := ws.Counts(); idle != 4 || built != 6 || dropped != 2 || slices.Contains(ws.idle, big) {
		t.Errorf("after a world of %d ranks: %d idle, %d built, %d dropped; want 4, 6, 2 with it dropped", big.key.p, idle, built, dropped)
	}
}

// TestDiscardWithoutHookKeepsNoGlobalCols: a discarding run no hook sees
// leaves Result.GlobalCols nil; a discarding run with a hook and a kept run
// list the same columns, and each hook sees its batch's window of them.
func TestDiscardWithoutHookKeepsNoGlobalCols(t *testing.T) {
	a := randomMat(t, 48, 48, 400, 305)
	for _, g := range []struct{ p, l, b int }{{4, 1, 1}, {16, 4, 3}, {16, 16, 2}} {
		name := fmt.Sprintf("p=%d,l=%d,b=%d", g.p, g.l, g.b)
		rc := RunConfig{P: g.p, L: g.l, Cost: testCM, Opts: Options{ForceBatches: g.b}}
		counted, _, err := MultiplyDiscard(a, a, rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		kept, _, err := MultiplyRanks(a, a, rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		windows := make([][]int32, g.p)
		hooked, _, err := MultiplyDiscard(a, a, rc, func(rank int) BatchHook {
			return func(_ int, cols []int32, _ *spmat.CSC) *spmat.CSC {
				windows[rank] = append(windows[rank], cols...)
				return nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := range counted {
			if counted[r].GlobalCols != nil {
				t.Errorf("%s rank %d: a count-only run kept %d global columns", name, r, len(counted[r].GlobalCols))
			}
			if kept[r].GlobalCols == nil || !reflect.DeepEqual(kept[r].GlobalCols, hooked[r].GlobalCols) {
				t.Errorf("%s rank %d: kept run's global columns %v, hooked discarding run's %v", name, r, kept[r].GlobalCols, hooked[r].GlobalCols)
			}
			if !slices.Equal(windows[r], kept[r].GlobalCols) {
				t.Errorf("%s rank %d: the hook's windows %v, the kept run's columns %v", name, r, windows[r], kept[r].GlobalCols)
			}
			if !reflect.DeepEqual(counted[r].BatchNNZ, kept[r].BatchNNZ) {
				t.Errorf("%s rank %d: count-only batches %v, kept %v", name, r, counted[r].BatchNNZ, kept[r].BatchNNZ)
			}
			kept[r].Release()
		}
	}
}
