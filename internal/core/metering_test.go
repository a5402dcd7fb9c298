package core

import (
	"testing"

	"repro/internal/localmm"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

func TestAllStepsMetered(t *testing.T) {
	a := randomMat(t, 32, 32, 300, 40)
	_, _, sum := runDistributed(t, 8, 2, a, a, Options{ForceBatches: 2, RunSymbolic: true}, nil)
	for _, step := range Steps {
		s := sum.Step(step)
		switch step {
		case StepSymbolic, StepABcast, StepBBcast, StepAllToAll:
			if s.Messages == 0 {
				t.Errorf("%s: no messages metered", step)
			}
			if s.CommSeconds <= 0 {
				t.Errorf("%s: no modeled comm time", step)
			}
		case StepLocalMult, StepMergeLayer, StepMergeFiber:
			if s.ComputeSeconds <= 0 {
				t.Errorf("%s: no compute time measured", step)
			}
		}
	}
}

// TestPackingChargedToMergeLayerNotAllToAll: the ColSplit packing that builds
// the fiber-exchange send buffers is local work. It must be metered as
// Merge-Layer compute, and the AllToAll-Fiber step must carry communication
// only — the category switch happens at the exchange itself, in both the
// staged and the overlapped schedule.
func TestPackingChargedToMergeLayerNotAllToAll(t *testing.T) {
	a := randomMat(t, 48, 48, 600, 49)
	for _, pipeline := range []bool{false, true} {
		_, _, sum := runDistributed(t, 16, 4, a, a, Options{ForceBatches: 2, Pipeline: pipeline}, nil)
		if s := sum.Step(StepAllToAll); s.ComputeSeconds != 0 || s.WorkUnits != 0 {
			t.Errorf("pipeline=%v: AllToAll-Fiber charged local compute: %+v", pipeline, s)
		}
		if s := sum.Step(StepMergeLayer); s.ComputeSeconds <= 0 {
			t.Errorf("pipeline=%v: Merge-Layer (incl. packing) has no compute time", pipeline)
		}
		// The exchange itself must still be fully accounted for — exposed plus
		// hidden (the overlapped schedule may hide all of it behind the
		// own-layer merge, so exposed alone can be zero).
		s := sum.Step(StepAllToAll)
		total := s.CommSeconds + sum.Step(StepAllToAllHidden).HiddenSeconds
		if total <= 0 || s.Messages == 0 {
			t.Errorf("pipeline=%v: AllToAll-Fiber lost its communication: %+v", pipeline, s)
		}
	}
}

// Table II, row A-Broadcast: total bandwidth scales with b.
func TestABcastVolumeScalesWithBatches(t *testing.T) {
	a := randomMat(t, 64, 64, 700, 41)
	_, _, s1 := runDistributed(t, 4, 1, a, a, Options{ForceBatches: 1}, nil)
	_, _, s4 := runDistributed(t, 4, 1, a, a, Options{ForceBatches: 4}, nil)
	b1 := s1.Step(StepABcast).Bytes
	b4 := s4.Step(StepABcast).Bytes
	if ratio := float64(b4) / float64(b1); ratio < 3.5 || ratio > 4.5 {
		t.Errorf("A-Bcast bytes ratio %v, want ≈4 (b=1: %d, b=4: %d)", ratio, b1, b4)
	}
}

// Table II, row B-Broadcast: total bandwidth independent of b (each batch
// moves 1/b of B). Message count grows with b instead.
func TestBBcastVolumeIndependentOfBatches(t *testing.T) {
	a := randomMat(t, 64, 64, 700, 42)
	_, _, s1 := runDistributed(t, 4, 1, a, a, Options{ForceBatches: 1}, nil)
	_, _, s4 := runDistributed(t, 4, 1, a, a, Options{ForceBatches: 4}, nil)
	b1 := s1.Step(StepBBcast).Bytes
	b4 := s4.Step(StepBBcast).Bytes
	// Equal nonzero payload; small header overhead per extra message allowed.
	if ratio := float64(b4) / float64(b1); ratio > 1.25 {
		t.Errorf("B-Bcast bytes grew with b: ratio %v (b=1: %d, b=4: %d)", ratio, b1, b4)
	}
	m1 := s1.Step(StepBBcast).Messages
	m4 := s4.Step(StepBBcast).Messages
	if m4 != 4*m1 {
		t.Errorf("B-Bcast messages: b=1 %d, b=4 %d, want 4x", m1, m4)
	}
}

// Table II: increasing l shrinks per-layer broadcast communicators, so the
// A-Broadcast volume per rank falls by ≈√l.
func TestMoreLayersReduceABcastVolume(t *testing.T) {
	a := randomMat(t, 64, 64, 900, 43)
	_, _, s1 := runDistributed(t, 16, 1, a, a, Options{ForceBatches: 2}, nil)
	_, _, s4 := runDistributed(t, 16, 4, a, a, Options{ForceBatches: 2}, nil)
	// Total A traffic summed over ranks: b·√(p/l)·nnz(A)-ish; per Table II
	// the aggregate bandwidth term drops by √l = 2.
	b1 := s1.Step(StepABcast).Bytes
	b4 := s4.Step(StepABcast).Bytes
	if !(b4 < b1) {
		t.Errorf("A-Bcast volume did not fall with more layers: l=1 %d, l=4 %d", b1, b4)
	}
}

// Increasing l moves volume into the fiber AllToAll (the tradeoff the paper's
// layer-count selection discussion is about).
func TestMoreLayersIncreaseFiberTraffic(t *testing.T) {
	a := randomMat(t, 64, 64, 900, 44)
	_, _, s1 := runDistributed(t, 16, 1, a, a, Options{ForceBatches: 1}, nil)
	_, _, s4 := runDistributed(t, 16, 4, a, a, Options{ForceBatches: 1}, nil)
	f1 := s1.Step(StepAllToAll).Bytes
	f4 := s4.Step(StepAllToAll).Bytes
	if !(f4 > f1) {
		t.Errorf("fiber traffic did not grow with layers: l=1 %d, l=4 %d", f1, f4)
	}
}

func TestFlopsConservedAcrossConfigurations(t *testing.T) {
	// Total multiplications are a property of the operands, independent of
	// grid shape or batching.
	a := randomMat(t, 48, 48, 500, 45)
	want := localmm.Flops(a, a)
	for _, cfg := range []struct{ p, l, b int }{{4, 1, 1}, {8, 2, 2}, {16, 4, 3}} {
		_, results, _ := runDistributed(t, cfg.p, cfg.l, a, a, Options{ForceBatches: cfg.b}, nil)
		var total int64
		for _, r := range results {
			total += r.LocalFlops
		}
		if total != want {
			t.Errorf("p=%d l=%d b=%d: flops %d, want %d", cfg.p, cfg.l, cfg.b, total, want)
		}
	}
}

func TestUnmergedNNZBoundsFlopsAndOutput(t *testing.T) {
	// Eq 1: flops ≥ Σ nnz(D(k)) ≥ nnz(C).
	a := randomMat(t, 48, 48, 500, 46)
	got, results, _ := runDistributed(t, 8, 2, a, a, Options{ForceBatches: 2}, nil)
	var flops, unmerged, mergedLayer int64
	for _, r := range results {
		flops += r.LocalFlops
		unmerged += r.UnmergedNNZ
		mergedLayer += r.MergedLayerNNZ
	}
	if !(flops >= unmerged) {
		t.Errorf("flops %d < unmerged %d", flops, unmerged)
	}
	if !(unmerged >= mergedLayer) {
		t.Errorf("unmerged %d < merged-layer %d", unmerged, mergedLayer)
	}
	if !(mergedLayer >= got.NNZ()) {
		t.Errorf("merged-layer %d < nnz(C) %d", mergedLayer, got.NNZ())
	}
}

func TestBatchLowerBound(t *testing.T) {
	// Unconstrained.
	if b := BatchLowerBound(1<<40, 1<<20, 1<<20, 0, 24); b != 1 {
		t.Errorf("unconstrained bound=%d", b)
	}
	// Comfortable memory → 1.
	if b := BatchLowerBound(1000, 10, 10, 1<<40, 24); b != 1 {
		t.Errorf("roomy bound=%d", b)
	}
	// memC twice available → 2 batches minimum.
	avail := int64(1 << 20)
	inputs := int64(100)
	mem := avail + 24*2*inputs
	if b := BatchLowerBound(2*avail, inputs, inputs, mem, 24); b != 2 {
		t.Errorf("bound=%d, want 2", b)
	}
	// Infeasible inputs.
	if b := BatchLowerBound(100, 1<<30, 1<<30, 1000, 24); b < 1<<20 {
		t.Errorf("infeasible bound=%d should be huge", b)
	}
}

func TestSymbolicEstimateAtLeastLowerBound(t *testing.T) {
	// The symbolic step uses per-rank maxima, so its b is ≥ the perfectly
	// balanced analytic bound computed from aggregate quantities.
	a := randomMat(t, 64, 64, 800, 47)
	mem := int64(24)*(2*a.NNZ())*3 + 8192
	_, results, _ := runDistributed(t, 4, 1, a, a, Options{MemBytes: mem}, nil)
	var unmerged int64
	for _, r := range results {
		unmerged += r.UnmergedNNZ
	}
	lower := BatchLowerBound(24*unmerged, a.NNZ(), a.NNZ(), mem, 24)
	if results[0].SymbolicB < lower {
		t.Errorf("symbolic b=%d below analytic lower bound %d", results[0].SymbolicB, lower)
	}
}

func TestMinPlusWithBatchingAndLayers(t *testing.T) {
	a := randomMat(t, 36, 36, 200, 48)
	sr := semiring.MinPlus()
	want := localmm.Multiply(a, a, sr)
	got, _, _ := runDistributed(t, 8, 2, a, a, Options{Semiring: sr, ForceBatches: 3}, nil)
	if !spmat.Equal(got, want) {
		t.Error("min-plus batched 3D result differs")
	}
}
