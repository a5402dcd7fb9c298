package core

import (
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// TestSparseCommModesBitIdentical: the column-subset path is a communication
// change only — every mode must produce the same assembled output, per batch
// count, kernel, grid shape, and schedule.
func TestSparseCommModesBitIdentical(t *testing.T) {
	a := randomMat(t, 60, 60, 300, 11)
	b := randomMat(t, 60, 60, 300, 12)
	for _, cfg := range []struct {
		name     string
		p, l, fb int
		symbolic bool
		pipeline bool
		kernel   localmm.Kernel
	}{
		{name: "p4-2d-staged", p: 4, l: 1, fb: 1},
		{name: "p16-3d-staged-b3", p: 16, l: 4, fb: 3},
		{name: "p16-3d-staged-symbolic", p: 16, l: 4, fb: 2, symbolic: true},
		{name: "p16-3d-pipelined-b2", p: 16, l: 4, fb: 2, pipeline: true},
		{name: "p16-3d-sorted-hash", p: 16, l: 4, fb: 2, kernel: localmm.KernelHashSorted},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			var ref *spmat.CSC
			for _, mode := range []mpi.SparseMode{mpi.SparseOff, mpi.SparseAuto, mpi.SparseOn} {
				opts := Options{
					ForceBatches: cfg.fb, RunSymbolic: cfg.symbolic, Pipeline: cfg.pipeline,
					Kernel: cfg.kernel, SparseComm: mode,
				}
				got, _, _ := runDistributed(t, cfg.p, cfg.l, a, b, opts, nil)
				if ref == nil {
					ref = got
					continue
				}
				if !spmat.Equal(ref, got) {
					t.Fatalf("sparse-comm %v changed the output", mode)
				}
			}
		})
	}
}

// runSparse is runDistributed with a caller-chosen cost model, so the subset
// decision can be driven into the bandwidth-dominated regime where it fires.
func runSparse(t *testing.T, p, l int, cm mpi.CostModel, a, b *spmat.CSC, opts Options) (*spmat.CSC, *mpi.Summary) {
	t.Helper()
	results := make([]*Result, p)
	var mu sync.Mutex
	var firstErr error
	meters := mpi.Run(p, cm, func(c *mpi.Comm) {
		g, err := grid.New(c, l)
		var res *Result
		if err == nil {
			var proc *Proc
			proc, err = Setup(g, a, b, opts)
			if err == nil {
				res, err = proc.BatchedSUMMA3D(nil)
			}
		}
		mu.Lock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		results[c.Rank()] = res
		mu.Unlock()
	})
	if firstErr != nil {
		t.Fatalf("distributed run failed: %v", firstErr)
	}
	assembled, err := AssembleResults(results, a.Rows, b.Cols)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return assembled, mpi.Summarize(meters)
}

// TestSparseCommReducesABcastBytes: on a hypersparse input (blocks far wider
// than their occupancy) and a bandwidth-dominated machine, auto mode must
// strictly reduce the metered A-Broadcast volume and modeled time versus
// full-block broadcasts, while leaving every other step's volume untouched.
func TestSparseCommReducesABcastBytes(t *testing.T) {
	// 1600 columns over a 4×4×4 grid → 100-column slices with a handful of
	// entries each: exactly the hypersparse regime the subset path targets.
	a := randomMat(t, 1600, 1600, 1500, 21)
	b := randomMat(t, 1600, 1600, 1500, 22)
	cm := mpi.CostModel{AlphaSec: 1e-9, BetaSecPerByte: 1e-6}
	run := func(mode mpi.SparseMode) *mpi.Summary {
		_, sum := runSparse(t, 64, 4, cm, a, b,
			Options{ForceBatches: 2, RunSymbolic: true, SparseComm: mode})
		return sum
	}
	off, auto := run(mpi.SparseOff), run(mpi.SparseAuto)
	offA, autoA := off.Steps[StepABcast], auto.Steps[StepABcast]
	if autoA.Bytes >= offA.Bytes {
		t.Errorf("auto A-Broadcast bytes = %d, want < off's %d", autoA.Bytes, offA.Bytes)
	}
	if autoA.CommSeconds >= offA.CommSeconds {
		t.Errorf("auto A-Broadcast comm = %g, want < off's %g", autoA.CommSeconds, offA.CommSeconds)
	}
	for _, step := range []string{StepBBcast, StepAllToAll} {
		if o, s := off.Steps[step], auto.Steps[step]; o.Bytes != s.Bytes {
			t.Errorf("%s bytes changed under sparse-comm: %d vs %d", step, o.Bytes, s.Bytes)
		}
	}
	// The symbolic pass always uses full blocks: supports are recorded there.
	if o, s := off.Steps[StepSymbolic], auto.Steps[StepSymbolic]; o.Bytes != s.Bytes {
		t.Errorf("Symbolic bytes changed under sparse-comm: %d vs %d", o.Bytes, s.Bytes)
	}
}

// TestSparseCommFallbackAllgather: skipping the symbolic pass must still arm
// the subset path — one support Allgather along each process column, charged
// to A-Broadcast — and produce the same output.
func TestSparseCommFallbackAllgather(t *testing.T) {
	const p, l = 16, 4
	a := randomMat(t, 400, 400, 500, 31)
	b := randomMat(t, 400, 400, 500, 32)
	opts := func(mode mpi.SparseMode) Options {
		return Options{ForceBatches: 2, SparseComm: mode} // symbolic skipped
	}
	off, _, offSum := runDistributed(t, p, l, a, b, opts(mpi.SparseOff), nil)
	on, _, onSum := runDistributed(t, p, l, a, b, opts(mpi.SparseOn), nil)
	if !spmat.Equal(off, on) {
		t.Fatal("sparse-comm on with Allgather fallback changed the output")
	}
	// Each rank posts exactly one extra A-Broadcast message: the Allgather.
	offMsg, onMsg := offSum.Steps[StepABcast].Messages, onSum.Steps[StepABcast].Messages
	if onMsg != offMsg+p {
		t.Errorf("A-Broadcast messages: off %d, on %d, want %d (one support Allgather per rank)", offMsg, onMsg, offMsg+p)
	}
}
