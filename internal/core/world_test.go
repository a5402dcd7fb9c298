package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

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
	w, err := NewWorld(base)
	if err != nil {
		t.Fatal(err)
	}
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
		res, sum, err := w.MultiplyDealt(da, db, rc, nil, tc.discard)
		if err != nil {
			t.Fatalf("run %d on the kept world: %v", i, err)
		}
		got := outcomeOf(t, res, sum, tc.x.Rows, tc.y.Cols, tc.discard)
		kept := rc.Trace
		if tc.trace {
			rc.Trace = obs.NewRecorder(rc.P)
		}
		res, sum, err = MultiplyDealt(da, db, rc, nil, tc.discard)
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
		if tc.trace && len(kept.Spans()) != len(rc.Trace.Spans()) {
			t.Errorf("run %d: the kept world traced %d spans, a fresh world %d", i, len(kept.Spans()), len(rc.Trace.Spans()))
		}
		if grids == nil {
			grids = append(grids, w.grids...)
		} else if !reflect.DeepEqual(grids, w.grids) {
			t.Fatalf("run %d rebuilt the kept world's grids", i)
		}
	}
}

// TestWorldRunsOnlyItsGrid: a run that names another rank count, layer count
// or cost model than the world's is an error before any rank starts, and
// leaves the world usable.
func TestWorldRunsOnlyItsGrid(t *testing.T) {
	a := randomMat(t, 24, 24, 120, 303)
	base := RunConfig{P: 16, L: 4, Cost: testCM, Opts: Options{ForceBatches: 1}}
	w, err := NewWorld(base)
	if err != nil {
		t.Fatal(err)
	}
	other := base
	other.Cost.AlphaSec *= 2
	for _, rc := range []RunConfig{
		{P: 16, L: 1, Cost: testCM, Opts: base.Opts},
		{P: 4, L: 4, Cost: testCM, Opts: base.Opts},
		other,
	} {
		da, db, err := deal(a, a, rc)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.MultiplyDealt(da, db, rc, nil, true); err == nil || !strings.Contains(err.Error(), "cannot run") {
			t.Errorf("p=%d, l=%d, cost %+v on a p=16, l=4 world: error %v", rc.P, rc.L, rc.Cost, err)
		}
	}
	da, db, err := deal(a, a, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.MultiplyDealt(da, db, base, nil, true); err != nil || w.Broken() {
		t.Fatalf("the world's own grid after refused runs: error %v, broken %v", err, w.Broken())
	}
	if _, err := NewWorld(RunConfig{P: 12, L: 1, Cost: testCM}); err == nil {
		t.Error("a world of 12 ranks in one layer was built")
	}
}

// TestFailedRunBreaksTheWorld: a run one rank's hook fails aborts the world,
// which then refuses every later run with an error — no panic, no rank
// started.
func TestFailedRunBreaksTheWorld(t *testing.T) {
	a := randomMat(t, 32, 32, 250, 304)
	rc := RunConfig{P: 4, L: 1, Cost: testCM, Opts: Options{ForceBatches: 2}}
	w, err := NewWorld(rc)
	if err != nil {
		t.Fatal(err)
	}
	da, db, err := deal(a, a, rc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.MultiplyDealt(da, db, rc, nil, false); err != nil {
		t.Fatal(err)
	}
	bad := func(rank int) BatchHook {
		if rank != 0 {
			return nil
		}
		return func(_ int, _ []int32, m *spmat.CSC) *spmat.CSC { return spmat.New(m.Rows+1, m.Cols) }
	}
	if _, _, err := w.MultiplyDealt(da, db, rc, bad, true); err == nil || !strings.Contains(err.Error(), "row count") {
		t.Fatalf("a failing hook: error %v", err)
	}
	if !w.Broken() {
		t.Fatal("a failed run left its world usable")
	}
	if _, _, err := w.MultiplyDealt(da, db, rc, nil, false); err == nil || !strings.Contains(err.Error(), "cannot run again") {
		t.Fatalf("a run on a broken world: error %v", err)
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
