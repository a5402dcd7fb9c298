// Package grid builds the paper's √(p/l) × √(p/l) × l process grids on top
// of the simulated MPI runtime and derives the communicators every SUMMA step
// needs: the 2D layer grid, process rows and columns within a layer, and the
// fibers that connect the same (i, j) position across layers.
package grid

import (
	"fmt"

	"repro/internal/mpi"
)

// Grid3D is one rank's view of a 3D process grid. A 2D grid is the special
// case L == 1.
type Grid3D struct {
	// World spans all p ranks of the grid.
	World *mpi.Comm
	// Q is the side of the square per-layer grid: Q = √(p/L).
	Q int
	// L is the number of layers.
	L int
	// I, J, K are this rank's row, column, and layer coordinates.
	I, J, K int
	// Layer spans the Q×Q ranks of layer K, ordered row-major by (I, J); it
	// is the P3D(:,:,k) communicator of Algorithms 1–3.
	Layer *mpi.Comm
	// Row spans the ranks P3D(I, :, K); A is broadcast along it.
	Row *mpi.Comm
	// Col spans the ranks P3D(:, J, K); B is broadcast along it.
	Col *mpi.Comm
	// Fiber spans the ranks P3D(I, J, :), ordered by layer; the AllToAll of
	// Algorithm 2 runs along it.
	Fiber *mpi.Comm
}

// SideFor returns the per-layer grid side q = √(p/l), or an error when p is
// not l times a perfect square.
func SideFor(p, l int) (int, error) {
	if l <= 0 || p <= 0 || p%l != 0 {
		return 0, fmt.Errorf("grid: %d ranks cannot form %d layers", p, l)
	}
	per := p / l
	q := 1
	for q*q < per {
		q++
	}
	if q*q != per {
		return 0, fmt.Errorf("grid: %d ranks per layer is not a perfect square", per)
	}
	return q, nil
}

// ValidP reports whether p ranks can form an l-layer grid with square layers.
func ValidP(p, l int) bool {
	_, err := SideFor(p, l)
	return err == nil
}

// New builds the 3D grid with l layers over the world communicator. Rank r
// has coordinates k = r / (q·q), i = (r mod q·q) / q, j = r mod q. Every rank
// of world must call New with the same l.
func New(world *mpi.Comm, l int) (*Grid3D, error) {
	q, err := SideFor(world.Size(), l)
	if err != nil {
		return nil, err
	}
	r := world.Rank()
	k := r / (q * q)
	i := (r % (q * q)) / q
	j := r % q
	g := &Grid3D{World: world, Q: q, L: l, I: i, J: j, K: k}
	// Layer: color by k, order row-major within the layer.
	g.Layer = world.Split(k, i*q+j)
	// Row within layer: color by (k, i), ordered by j.
	g.Row = world.Split(k*q+i, j)
	// Column within layer: color by (k, j) in a disjoint color space.
	g.Col = world.Split(l*q+k*q+j, i)
	// Fiber: color by (i, j), ordered by layer.
	g.Fiber = world.Split(2*l*q+i*q+j, k)
	return g, nil
}

// String describes the grid shape, e.g. "4x4x2".
func (g *Grid3D) String() string { return fmt.Sprintf("%dx%dx%d", g.Q, g.Q, g.L) }

// P returns the total number of ranks.
func (g *Grid3D) P() int { return g.Q * g.Q * g.L }
