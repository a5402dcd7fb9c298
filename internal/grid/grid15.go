package grid

import (
	"fmt"

	"repro/internal/mpi"
)

// Grid15 is one rank's view of a 1.5D process grid: p ranks arranged as a
// ring of S = p/C positions replicated across C layers, the layout of
// Koanantakool et al.'s 1.5D sparse×dense algorithms (ColA, InnerABC). The
// stationary operands are partitioned over ring positions and replicated
// across layers; the moving operand rotates around each layer's ring, with
// the layers covering disjoint block subsets that a final fiber reduction
// combines. C = 1 degenerates to the pure 1D ring algorithm.
type Grid15 struct {
	// World spans all p ranks.
	World *mpi.Comm
	// S is the ring size (number of block positions), S = p/C.
	S int
	// C is the replication factor (number of layers).
	C int
	// J, K are this rank's ring position and layer.
	J, K int
	// Ring spans the S ranks of layer K, ordered by position; the per-round
	// shifts of the moving operand run along it.
	Ring *mpi.Comm
	// Fiber spans the C ranks at position J across layers, ordered by layer;
	// the one-time replication of the stationary operand and the final
	// partial-result reduction run along it.
	Fiber *mpi.Comm
	// Skew spans the C ranks whose ring walk starts at the same block — rank
	// (j, k) starts at block (j + k·S/C) mod S — ordered by layer, with the
	// block's canonical layer-0 owner first. The one-time distribution of the
	// moving operand's starting blocks runs along it.
	Skew *mpi.Comm
}

// Valid15 reports whether p ranks support replication factor c: the layers
// must tile the ring walk exactly, which needs c | p and c | (p/c).
func Valid15(p, c int) error {
	if c <= 0 || p <= 0 {
		return fmt.Errorf("grid: 1.5D with p=%d c=%d", p, c)
	}
	if p%c != 0 {
		return fmt.Errorf("grid: %d ranks cannot form %d layers", p, c)
	}
	if (p/c)%c != 0 {
		return fmt.Errorf("grid: replication %d does not divide ring size %d (need c² | p)", c, p/c)
	}
	return nil
}

// New15 builds the 1.5D grid with replication c over the world communicator.
// Rank r has layer k = r / s and position j = r mod s. Every rank of world
// must call New15 with the same c.
func New15(world *mpi.Comm, c int) (*Grid15, error) {
	p := world.Size()
	if err := Valid15(p, c); err != nil {
		return nil, err
	}
	s := p / c
	r := world.Rank()
	g := &Grid15{World: world, S: s, C: c, J: r % s, K: r / s}
	// Disjoint color spaces, same discipline as Grid3D.
	g.Ring = world.Split(g.K, g.J)
	g.Fiber = world.Split(c+g.J, g.K)
	g.Skew = world.Split(c+s+(g.J+g.K*(s/c))%s, g.K)
	return g, nil
}

// R returns the number of ring rounds per rank: each layer walks S/C of the
// S blocks, so the C layers jointly cover all of them exactly once.
func (g *Grid15) R() int { return g.S / g.C }

// StartBlock returns the block index this rank's ring walk starts at.
func (g *Grid15) StartBlock() int { return (g.J + g.K*g.R()) % g.S }

// String describes the grid shape, e.g. "8x2 (1.5D)".
func (g *Grid15) String() string { return fmt.Sprintf("%dx%d (1.5D)", g.S, g.C) }
