package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/spmat"
)

// replaySpans sums one rank's spans per category, in record order — the same
// float addition sequence the meter performed at its charge points — so a
// correct recorder reproduces the meter's StepStats bit for bit.
func replaySpans(spans []obs.Span) map[string]*mpi.StepStats {
	out := make(map[string]*mpi.StepStats)
	for _, sp := range spans {
		st := out[sp.Cat]
		if st == nil {
			st = &mpi.StepStats{}
			out[sp.Cat] = st
		}
		switch sp.Kind {
		case obs.KindComm:
			st.CommSeconds += sp.Dur
			st.Messages += sp.Msgs
			st.Bytes += sp.Bytes
		case obs.KindHidden:
			st.HiddenSeconds += sp.Dur
		case obs.KindCompute:
			st.ComputeSeconds += sp.Dur
			st.WorkUnits += sp.Work
		}
	}
	return out
}

// checkIdentity verifies every rank's span replay equals its meter exactly —
// same category set, and bitwise-equal (==, no tolerance) values in all six
// StepStats fields. The identity holds by construction: each charge point
// records one span with the exact increment, so summing spans in order
// replays the meter's own additions.
func checkIdentity(t *testing.T, name string, rec *obs.Recorder, meters []*mpi.Meter) {
	t.Helper()
	for r, m := range meters {
		replay := replaySpans(rec.Rank(r).Spans())
		cats := m.Categories()
		if len(replay) != len(cats) {
			t.Errorf("%s rank %d: %d span categories, meter has %d (%v)",
				name, r, len(replay), len(cats), cats)
		}
		for _, cat := range cats {
			want := m.Step(cat)
			got := replay[cat]
			if got == nil {
				t.Errorf("%s rank %d: no spans for metered category %q", name, r, cat)
				continue
			}
			if got.CommSeconds != want.CommSeconds || got.HiddenSeconds != want.HiddenSeconds ||
				got.ComputeSeconds != want.ComputeSeconds || got.WorkUnits != want.WorkUnits ||
				got.Messages != want.Messages || got.Bytes != want.Bytes {
				t.Errorf("%s rank %d %s: span replay %+v != meter %+v", name, r, cat, *got, want)
			}
		}
	}
}

// TestTraceMatchesMeter is the load-bearing invariant of the obs package:
// per-rank, per-category span sums reproduce the meter's StepStats exactly
// (==, not approximately) across schedules, formats, kernels, and overlap
// channel counts — including pipelined multi-batch runs where hidden-comm
// credit and cross-batch prefetch make the attribution hardest.
func TestTraceMatchesMeter(t *testing.T) {
	a := randomMat(t, 48, 48, 600, 171)
	b := randomMat(t, 48, 48, 600, 172)
	for _, tc := range []struct {
		p, l, batches int
		pipeline      bool
		symbolic      bool
		format        spmat.Format
		channels      int
		kernel        localmm.Kernel
	}{
		{p: 4, l: 1, batches: 1},
		{p: 16, l: 4, batches: 3, symbolic: true},
		{p: 16, l: 4, batches: 3, pipeline: true, symbolic: true},
		{p: 16, l: 4, batches: 2, pipeline: true, channels: 2, format: spmat.FormatDCSC},
		{p: 8, l: 2, batches: 2, pipeline: true, kernel: localmm.KernelHashSorted},
		{p: 9, l: 1, batches: 2, format: spmat.FormatDCSC, kernel: localmm.KernelHashSorted},
	} {
		name := fmt.Sprintf("p=%d,l=%d,b=%d,pipe=%v,sym=%v,fmt=%v,k=%d",
			tc.p, tc.l, tc.batches, tc.pipeline, tc.symbolic, tc.format, tc.channels)
		opts := Options{
			ForceBatches: tc.batches, Pipeline: tc.pipeline, RunSymbolic: tc.symbolic,
			Format: tc.format, Channels: tc.channels, Kernel: tc.kernel,
		}
		rec := obs.NewRecorder(tc.p)
		var mu sync.Mutex
		var firstErr error
		meters := mpi.RunTraced(tc.p, testCM, rec, func(c *mpi.Comm) {
			g, err := grid.New(c, tc.l)
			if err == nil {
				var proc *Proc
				if proc, err = Setup(g, a, b, opts); err == nil {
					_, err = proc.BatchedSUMMA3D(nil)
				}
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		})
		if firstErr != nil {
			t.Fatalf("%s: %v", name, firstErr)
		}
		checkIdentity(t, name, rec, meters)
		if tc.pipeline {
			assertHiddenSpans(t, name, rec, tc.channels)
		}
	}
}

// assertHiddenSpans checks a pipelined run actually recorded hidden spans and
// that their channel tags stay within the configured channel count.
func assertHiddenSpans(t *testing.T, name string, rec *obs.Recorder, channels int) {
	t.Helper()
	if channels <= 0 {
		channels = 1
	}
	hidden := 0
	for _, sp := range rec.Spans() {
		if sp.Kind != obs.KindHidden {
			continue
		}
		hidden++
		if sp.Channel >= channels {
			t.Errorf("%s: hidden span tagged channel %d with only %d channels", name, sp.Channel, channels)
		}
	}
	if hidden == 0 {
		t.Errorf("%s: pipelined run recorded no hidden spans", name)
	}
}

// TestTraceMatchesMeterDense covers the 1.5D sparse×dense schedules: the
// ring-shifted ColA and the stationary-C InnerABC, both staged and
// pipelined, with fiber reduction (c > 1) in play.
func TestTraceMatchesMeterDense(t *testing.T) {
	a := randomMat(t, 32, 32, 400, 173)
	d := randomDense(t, 32, 8, 174)
	for _, tc := range []struct {
		algo     planner.Algo
		p, c, b  int
		pipeline bool
	}{
		{algo: planner.AlgoColA, p: 8, c: 2, b: 2},
		{algo: planner.AlgoColA, p: 8, c: 2, b: 3, pipeline: true},
		{algo: planner.AlgoInnerABC, p: 8, c: 2, b: 2},
		{algo: planner.AlgoInnerABC, p: 16, c: 4, b: 2, pipeline: true},
	} {
		name := fmt.Sprintf("%v,p=%d,c=%d,b=%d,pipe=%v", tc.algo, tc.p, tc.c, tc.b, tc.pipeline)
		cfg := planner.DenseConfig{Algo: tc.algo, C: tc.c, B: tc.b, Pipeline: tc.pipeline}
		opts := Options{}.withDefaults()
		rec := obs.NewRecorder(tc.p)
		var mu sync.Mutex
		var firstErr error
		meters := mpi.RunTraced(tc.p, testCM, rec, func(c *mpi.Comm) {
			p, err := newDenseProc(c, cfg, opts)
			if err == nil {
				if tc.algo == planner.AlgoColA {
					err = p.runColA(a, d)
				} else {
					err = p.runInnerABC(a, d)
				}
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		})
		if firstErr != nil {
			t.Fatalf("%s: %v", name, firstErr)
		}
		checkIdentity(t, name, rec, meters)
	}
}

// TestTraceBatchStageLabels: spans inside the batched schedule's loops carry
// the batch and stage they belong to, and a multi-batch run labels every
// batch index at least once.
func TestTraceBatchStageLabels(t *testing.T) {
	a := randomMat(t, 48, 48, 600, 175)
	const batches = 3
	rec := obs.NewRecorder(16)
	_, _, _, err := Multiply(a, a, RunConfig{
		P: 16, L: 4, Cost: testCM,
		Opts:  Options{ForceBatches: batches, Pipeline: true, RunSymbolic: true},
		Trace: rec,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seenBatch := map[int]bool{}
	seenStage := map[int]bool{}
	for _, sp := range rec.Spans() {
		if sp.Batch >= batches {
			t.Fatalf("span labeled batch %d beyond %d batches", sp.Batch, batches)
		}
		seenBatch[sp.Batch] = true
		seenStage[sp.Stage] = true
	}
	for want := 0; want < batches; want++ {
		if !seenBatch[want] {
			t.Errorf("no span labeled batch %d", want)
		}
	}
	if !seenStage[0] {
		t.Error("no span labeled stage 0")
	}
	if !seenBatch[-1] {
		t.Error("no span outside the batch loop (assembly should be unlabeled)")
	}
}
