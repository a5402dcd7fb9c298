package grid

import (
	"testing"

	"repro/internal/mpi"
)

var cm = mpi.CostModel{AlphaSec: 1e-6, BetaSecPerByte: 1e-9}

// RankOf returns the world rank at coordinates (i, j, k): the layout New
// builds its communicators from, written out independently.
func (g *Grid3D) RankOf(i, j, k int) int { return k*g.Q*g.Q + i*g.Q + j }

func TestSideFor(t *testing.T) {
	cases := []struct {
		p, l, q int
		ok      bool
	}{
		{4, 1, 2, true},
		{16, 1, 4, true},
		{16, 4, 2, true},
		{8, 2, 2, true},
		{32, 2, 4, true},
		{64, 16, 2, true},
		{12, 1, 0, false}, // 12 not a square
		{16, 3, 0, false}, // not divisible
		{0, 1, 0, false},
		{16, 0, 0, false},
	}
	for _, c := range cases {
		q, err := SideFor(c.p, c.l)
		if c.ok && (err != nil || q != c.q) {
			t.Errorf("SideFor(%d,%d)=%d,%v want %d", c.p, c.l, q, err, c.q)
		}
		if !c.ok && err == nil {
			t.Errorf("SideFor(%d,%d) should fail", c.p, c.l)
		}
		if got := ValidP(c.p, c.l); got != c.ok {
			t.Errorf("ValidP(%d,%d)=%v", c.p, c.l, got)
		}
	}
}

func TestGridCoordinates(t *testing.T) {
	// 2 layers of 2x2.
	mpi.Run(8, cm, func(c *mpi.Comm) {
		g, err := New(c, 2)
		if err != nil {
			t.Error(err)
			return
		}
		if g.Q != 2 || g.L != 2 {
			t.Errorf("shape %v", g)
		}
		if g.RankOf(g.I, g.J, g.K) != c.Rank() {
			t.Errorf("rank %d: coords (%d,%d,%d) round trip to %d",
				c.Rank(), g.I, g.J, g.K, g.RankOf(g.I, g.J, g.K))
		}
		if g.P() != 8 {
			t.Errorf("P=%d", g.P())
		}
	})
}

func TestGridCommunicatorSizes(t *testing.T) {
	mpi.Run(16, cm, func(c *mpi.Comm) {
		g, err := New(c, 4) // 2x2x4
		if err != nil {
			t.Error(err)
			return
		}
		if g.Layer.Size() != 4 {
			t.Errorf("layer size=%d, want 4", g.Layer.Size())
		}
		if g.Row.Size() != 2 || g.Col.Size() != 2 {
			t.Errorf("row=%d col=%d, want 2", g.Row.Size(), g.Col.Size())
		}
		if g.Fiber.Size() != 4 {
			t.Errorf("fiber size=%d, want 4", g.Fiber.Size())
		}
		// Sub-communicator ranks match the coordinates.
		if g.Row.Rank() != g.J {
			t.Errorf("row rank=%d, want %d", g.Row.Rank(), g.J)
		}
		if g.Col.Rank() != g.I {
			t.Errorf("col rank=%d, want %d", g.Col.Rank(), g.I)
		}
		if g.Fiber.Rank() != g.K {
			t.Errorf("fiber rank=%d, want %d", g.Fiber.Rank(), g.K)
		}
		if g.Layer.Rank() != g.I*g.Q+g.J {
			t.Errorf("layer rank=%d, want %d", g.Layer.Rank(), g.I*g.Q+g.J)
		}
	})
}

func TestGridCollectivesRouteCorrectly(t *testing.T) {
	// Verify the row communicator really spans (I, :, K): the sum of ranks
	// along a row equals the analytic value.
	mpi.Run(18, cm, func(c *mpi.Comm) {
		g, err := New(c, 2) // 3x3x2
		if err != nil {
			t.Error(err)
			return
		}
		gotRow := g.Row.AllreduceInt64(int64(c.Rank()), mpi.OpSum)
		var wantRow int64
		for j := 0; j < g.Q; j++ {
			wantRow += int64(g.RankOf(g.I, j, g.K))
		}
		if gotRow != wantRow {
			t.Errorf("rank %d: row sum %d, want %d", c.Rank(), gotRow, wantRow)
		}
		gotFiber := g.Fiber.AllreduceInt64(int64(c.Rank()), mpi.OpSum)
		var wantFiber int64
		for k := 0; k < g.L; k++ {
			wantFiber += int64(g.RankOf(g.I, g.J, k))
		}
		if gotFiber != wantFiber {
			t.Errorf("rank %d: fiber sum %d, want %d", c.Rank(), gotFiber, wantFiber)
		}
	})
}

func TestSingleLayerGridIs2D(t *testing.T) {
	mpi.Run(9, cm, func(c *mpi.Comm) {
		g, err := New(c, 1)
		if err != nil {
			t.Error(err)
			return
		}
		if g.Fiber.Size() != 1 {
			t.Errorf("fiber of 2D grid has size %d", g.Fiber.Size())
		}
		if g.Layer.Size() != 9 {
			t.Errorf("layer size=%d", g.Layer.Size())
		}
	})
}

func TestNewRejectsBadShape(t *testing.T) {
	mpi.Run(6, cm, func(c *mpi.Comm) {
		if _, err := New(c, 1); err == nil {
			t.Error("6 ranks accepted as square grid")
		}
	})
}
