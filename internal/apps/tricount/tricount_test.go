package tricount

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// TestMain runs this package's tests with returned chunks poisoned
// (localmm.PoisonReturnedChunks). The batch a core.MultiplyDiscard hook is
// handed is borrowed for the call: once the hook returns, its entries are
// every row −1 and every value NaN, so a hook that read its piece after
// returning would fail the comparison with the serial reference.
func TestMain(m *testing.M) {
	localmm.PoisonReturnedChunks.Store(true)
	os.Exit(m.Run())
}

// complete returns the adjacency matrix of K_n (no self loops).
func complete(n int32) *spmat.CSC {
	var ts []spmat.Triple
	for i := int32(0); i < n; i++ {
		for j := int32(0); j < n; j++ {
			if i != j {
				ts = append(ts, spmat.Triple{Row: i, Col: j, Val: 1})
			}
		}
	}
	m, _ := spmat.FromTriples(n, n, ts, nil)
	return m
}

// cycle returns the adjacency matrix of the n-cycle.
func cycle(n int32) *spmat.CSC {
	var ts []spmat.Triple
	for i := int32(0); i < n; i++ {
		j := (i + 1) % n
		ts = append(ts, spmat.Triple{Row: i, Col: j, Val: 1}, spmat.Triple{Row: j, Col: i, Val: 1})
	}
	m, _ := spmat.FromTriples(n, n, ts, nil)
	return m
}

func choose3(n int64) int64 { return n * (n - 1) * (n - 2) / 6 }

func TestCompleteGraphTriangles(t *testing.T) {
	for _, n := range []int32{3, 4, 5, 8, 12} {
		got, err := CountSerial(complete(n))
		if err != nil {
			t.Fatal(err)
		}
		if want := choose3(int64(n)); got != want {
			t.Errorf("K%d: %d triangles, want %d", n, got, want)
		}
	}
}

func TestCycleHasNoTriangles(t *testing.T) {
	for _, n := range []int32{4, 5, 10} {
		got, err := CountSerial(cycle(n))
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("C%d: %d triangles, want 0", n, got)
		}
	}
	// C3 is itself a triangle.
	if got, _ := CountSerial(cycle(3)); got != 1 {
		t.Errorf("C3: %d triangles, want 1", got)
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	k4 := complete(4)
	withLoops := spmat.Add(k4, spmat.Identity(4), nil)
	got, err := CountSerial(withLoops)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("K4+loops: %d triangles, want 4", got)
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	adj := genmat.RMAT(genmat.RMATConfig{Scale: 6, EdgeFactor: 10, Symmetrize: true, Seed: 3})
	want, err := CountSerial(adj)
	if err != nil {
		t.Fatal(err)
	}
	rc := core.RunConfig{P: 4, L: 1, Cost: mpi.CostModel{AlphaSec: 1e-6, BetaSecPerByte: 1e-9},
		Opts: core.Options{ForceBatches: 2}}
	got, summary, err := CountDistributed(adj, rc)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("distributed %d, serial %d", got, want)
	}
	if summary.Step(core.StepLocalMult).ComputeSeconds <= 0 {
		t.Error("no multiply time metered")
	}
}

func TestDistributedLayersAndBatches(t *testing.T) {
	adj := genmat.RMAT(genmat.RMATConfig{Scale: 6, EdgeFactor: 8, Symmetrize: true, Seed: 4})
	want, _ := CountSerial(adj)
	for _, cfg := range []struct{ p, l, b int }{{8, 2, 1}, {16, 4, 3}} {
		rc := core.RunConfig{P: cfg.p, L: cfg.l,
			Cost: mpi.CostModel{AlphaSec: 1e-6, BetaSecPerByte: 1e-9},
			Opts: core.Options{ForceBatches: cfg.b}}
		got, _, err := CountDistributed(adj, rc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("p=%d l=%d b=%d: %d triangles, want %d", cfg.p, cfg.l, cfg.b, got, want)
		}
	}
}

func TestRejectsRectangular(t *testing.T) {
	if _, err := CountSerial(spmat.New(3, 4)); err == nil {
		t.Error("rectangular adjacency accepted")
	}
	if _, _, err := CountDistributed(spmat.New(3, 4), core.RunConfig{P: 4, L: 1}); err == nil {
		t.Error("rectangular adjacency accepted by distributed path")
	}
}

func TestEmptyGraph(t *testing.T) {
	got, err := CountSerial(spmat.New(10, 10))
	if err != nil || got != 0 {
		t.Errorf("empty graph: %d triangles, err=%v", got, err)
	}
}

func TestMaskedAndUnmaskedAgree(t *testing.T) {
	adj := genmat.RMAT(genmat.RMATConfig{Scale: 7, EdgeFactor: 10, Symmetrize: true, Seed: 5})
	masked, err := CountSerial(adj)
	if err != nil {
		t.Fatal(err)
	}
	unmasked, err := CountSerialUnmasked(adj)
	if err != nil {
		t.Fatal(err)
	}
	if masked != unmasked {
		t.Errorf("masked %d vs unmasked %d", masked, unmasked)
	}
}

// CountSerialUnmasked counts triangles by materializing the full wedge
// matrix L·U and masking afterwards — the ablation baseline for the masked
// kernel.
func CountSerialUnmasked(adj *spmat.CSC) (int64, error) {
	if adj.Rows != adj.Cols {
		return 0, fmt.Errorf("tricount: adjacency matrix must be square, got %v", adj)
	}
	l := genmat.LowerTriangle(adj)
	u := genmat.UpperTriangle(adj)
	wedges := localmm.Multiply(l, u, semiring.PlusTimes())
	masked := spmat.Mask(wedges, l)
	return int64(masked.Sum() + 0.5), nil
}
