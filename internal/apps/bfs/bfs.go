// Package bfs implements multi-source breadth-first search as iterated
// SpGEMM over the Boolean semiring — the linear-algebraic graph-processing
// formulation behind the GraphBLAS-style applications the paper cites
// ([3]–[5]): a frontier matrix F (vertices × sources) is expanded as
// F' = A·F, masked against the already-visited set, until all frontiers are
// empty. Running many sources at once turns BFS into exactly the kind of
// sparse×sparse product BatchedSUMMA3D accelerates, and the per-batch hook
// lets the level assignment happen without materializing more than a batch
// of the expanded frontier.
package bfs

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/localmm"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// Levels holds the BFS result: Level[v][s] is the distance of vertex v from
// source s, or -1 when unreachable. Stored flat: index v*numSources+s.
type Levels struct {
	NumVertices, NumSources int32
	Level                   []int32
}

// At returns the level of vertex v from source s.
func (l *Levels) At(v, s int32) int32 { return l.Level[int(v)*int(l.NumSources)+int(s)] }

// set records a level.
func (l *Levels) set(v, s, lev int32) { l.Level[int(v)*int(l.NumSources)+int(s)] = lev }

// newLevels initializes all levels to -1.
func newLevels(n, s int32) *Levels {
	l := &Levels{NumVertices: n, NumSources: s, Level: make([]int32, int(n)*int(s))}
	for i := range l.Level {
		l.Level[i] = -1
	}
	return l
}

// MultiSourceSerial runs BFS from the given sources on the adjacency matrix
// adj (edges column→row, i.e. adj(i,j)≠0 means j→i; symmetric matrices give
// undirected BFS). The expansion product runs serially.
func MultiSourceSerial(adj *spmat.CSC, sources []int32) (*Levels, error) {
	sr := semiring.BoolOrAnd()
	return multiSource(adj, sources, func(a, f *spmat.CSC) (*spmat.CSC, error) {
		return localmm.Multiply(a, f, sr), nil
	})
}

// MultiSourceDistributed runs the same search with every frontier expansion
// executed by BatchedSUMMA3D on the simulated cluster.
func MultiSourceDistributed(adj *spmat.CSC, sources []int32, rc core.RunConfig) (*Levels, error) {
	return multiSource(adj, sources, func(a, f *spmat.CSC) (*spmat.CSC, error) {
		next, _, _, err := core.Multiply(a, f, rc, nil)
		return next, err
	})
}

// MultiSourceVia runs the search with every frontier expansion delegated to
// mul over the bool-or-and semiring — typically
// (*service.Client).MultiplyMatrices against a spgemmd daemon holding the
// adjacency matrix resident, so each depth's product replans from cache.
func MultiSourceVia(adj *spmat.CSC, sources []int32, mul apps.MultiplyFunc) (*Levels, error) {
	return multiSource(adj, sources, func(a, f *spmat.CSC) (*spmat.CSC, error) {
		return mul(a, f, "bool-or-and")
	})
}

func multiSource(adj *spmat.CSC, sources []int32, expand func(adj, frontier *spmat.CSC) (*spmat.CSC, error)) (*Levels, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("bfs: adjacency matrix must be square, got %v", adj)
	}
	n := adj.Rows
	ns := int32(len(sources))
	if ns == 0 {
		return nil, fmt.Errorf("bfs: no sources")
	}
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("bfs: source %d out of range [0,%d)", s, n)
		}
	}
	levels := newLevels(n, ns)
	// Initial frontier: one column per source.
	ts := make([]spmat.Triple, ns)
	for c, s := range sources {
		ts[c] = spmat.Triple{Row: s, Col: int32(c), Val: 1}
		levels.set(s, int32(c), 0)
	}
	frontier, err := spmat.FromTriples(n, ns, ts, nil)
	if err != nil {
		return nil, err
	}
	for depth := int32(1); frontier.NNZ() > 0 && depth <= n; depth++ {
		next, err := expand(adj, frontier)
		if err != nil {
			return nil, err
		}
		// Mask: keep only newly discovered (vertex, source) pairs.
		next.Filter(func(v, s int32, _ float64) bool {
			return levels.At(v, s) == -1
		})
		for _, t := range next.Triples() {
			levels.set(t.Row, t.Col, depth)
		}
		frontier = next
	}
	return levels, nil
}

// Eccentricity returns the maximum finite level per source (the BFS
// eccentricity of each source within its component).
func (l *Levels) Eccentricity() []int32 {
	out := make([]int32, l.NumSources)
	for v := int32(0); v < l.NumVertices; v++ {
		for s := int32(0); s < l.NumSources; s++ {
			if lev := l.At(v, s); lev > out[s] {
				out[s] = lev
			}
		}
	}
	return out
}
