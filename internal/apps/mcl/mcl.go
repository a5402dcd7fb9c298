// Package mcl implements Markov clustering (van Dongen) in the style of
// HipMCL [19], the application the paper plugs BatchedSUMMA3D into (Sec. V-C,
// Fig 3). Each iteration expands (squares the stochastic matrix — the
// SpGEMM), inflates (entry-wise power + column normalization), and prunes
// (threshold and column top-k), repeating until the chaos measure converges;
// clusters are then read off the attractor structure.
//
// The expansion step can run serially or on the simulated cluster through
// BatchedSUMMA3D; in the distributed mode the threshold prune is applied
// inside the per-batch hook, exactly how HipMCL keeps A² from materializing.
package mcl

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// Config controls the clustering iteration.
type Config struct {
	// Inflation is the entry-wise power applied after expansion (default 2).
	Inflation float64
	// PruneThreshold drops entries below it after inflation (default 1e-4).
	PruneThreshold float64
	// TopK keeps at most this many entries per column after pruning
	// (default 64; HipMCL calls this "recovery/selection").
	TopK int
	// MaxIter bounds the iteration count (default 60).
	MaxIter int
	// ChaosTol declares convergence when the chaos measure falls below it
	// (default 1e-3).
	ChaosTol float64
	// Dist, when non-nil, runs every expansion on the simulated cluster.
	Dist *core.RunConfig
}

func (c Config) withDefaults() Config {
	if c.Inflation == 0 {
		c.Inflation = 2
	}
	if c.PruneThreshold == 0 {
		c.PruneThreshold = 1e-4
	}
	if c.TopK == 0 {
		c.TopK = 64
	}
	if c.MaxIter == 0 {
		c.MaxIter = 60
	}
	if c.ChaosTol == 0 {
		c.ChaosTol = 1e-3
	}
	return c
}

// IterStats records one iteration for Fig 3 style reporting.
type IterStats struct {
	Iter    int
	Batches int
	NNZ     int64
	Chaos   float64
	// Summary is the step metering of the distributed expansion (nil for
	// serial runs).
	Summary *mpi.Summary
}

// Result is the clustering outcome.
type Result struct {
	// Labels assigns every node a cluster id in [0, NumClusters).
	Labels []int32
	// NumClusters is the number of distinct clusters.
	NumClusters int
	// Iters holds per-iteration statistics.
	Iters []IterStats
	// Converged reports whether chaos fell below tolerance before MaxIter.
	Converged bool
}

// Cluster runs Markov clustering on the (symmetric, non-negative) similarity
// matrix a.
func Cluster(a *spmat.CSC, cfg Config) (*Result, error) {
	return cluster(a, cfg, func(m *spmat.CSC, cfg Config) (*spmat.CSC, int, *mpi.Summary, error) {
		return expand(m, cfg)
	})
}

// ClusterVia runs the same iteration with every expansion delegated to mul —
// typically (*service.Client).MultiplyMatrices, so a spgemmd daemon holding
// the stochastic matrix resident does the SpGEMM and its plan cache makes
// every expansion after the first probe-free. cfg.Dist is ignored; pruning
// happens client-side after each product (the hook-based in-flight prune is
// an engine-local optimization).
func ClusterVia(a *spmat.CSC, cfg Config, mul apps.MultiplyFunc) (*Result, error) {
	return cluster(a, cfg, func(m *spmat.CSC, _ Config) (*spmat.CSC, int, *mpi.Summary, error) {
		c, err := mul(m, m, "plus-times")
		return c, 1, nil, err
	})
}

func cluster(a *spmat.CSC, cfg Config, expand func(*spmat.CSC, Config) (*spmat.CSC, int, *mpi.Summary, error)) (*Result, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mcl: matrix must be square, got %v", a)
	}
	cfg = cfg.withDefaults()
	m := AddSelfLoops(a)
	NormalizeColumns(m)
	res := &Result{}
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		expanded, batches, summary, err := expand(m, cfg)
		if err != nil {
			return nil, err
		}
		Inflate(expanded, cfg.Inflation)
		Prune(expanded, cfg.PruneThreshold, cfg.TopK)
		NormalizeColumns(expanded)
		chaos := Chaos(expanded)
		res.Iters = append(res.Iters, IterStats{
			Iter: iter, Batches: batches, NNZ: expanded.NNZ(), Chaos: chaos, Summary: summary,
		})
		m = expanded
		if chaos < cfg.ChaosTol {
			res.Converged = true
			break
		}
	}
	res.Labels, res.NumClusters = Interpret(m)
	return res, nil
}

// expand computes M², serially or on the simulated cluster.
func expand(m *spmat.CSC, cfg Config) (*spmat.CSC, int, *mpi.Summary, error) {
	if cfg.Dist == nil {
		return localmm.Multiply(m, m, semiring.PlusTimes()), 1, nil, nil
	}
	rc := *cfg.Dist
	// Per-batch threshold pruning inside the hook: entry-wise, so it is
	// exact even though each rank only holds a row block of the column.
	thr := cfg.PruneThreshold
	hook := func(rank int) core.BatchHook {
		return func(_ int, _ []int32, c *spmat.CSC) *spmat.CSC {
			c.Filter(func(_, _ int32, v float64) bool { return v >= thr })
			return c
		}
	}
	got, results, summary, err := core.Multiply(m, m, rc, hook)
	if err != nil {
		return nil, 0, nil, err
	}
	return got, results[0].Batches, summary, nil
}

// AddSelfLoops returns a + I on the sparsity pattern (existing diagonal
// entries are kept, missing ones set to the column maximum as HipMCL does).
// It builds the CSC form in one pass over a's columns, into arrays of their
// bound, nnz(a) + one a column: each column is copied with a missing
// diagonal merged in at its row, sorted only when a's columns are not, and
// its duplicate rows summed — what spmat.FromTriples makes of the same
// entries, array for array.
func AddSelfLoops(a *spmat.CSC) *spmat.CSC {
	out := &spmat.CSC{Rows: a.Rows, Cols: a.Cols, ColPtr: make([]int64, a.Cols+1), SortedCols: true}
	rows := make([]int32, 0, a.NNZ()+int64(a.Cols))
	vals := make([]float64, 0, cap(rows))
	var sorter spmat.PairSorter
	for j := int32(0); j < a.Cols; j++ {
		cr, cv := a.Column(j)
		var maxV float64
		hasDiag := false
		for p := range cr {
			if cv[p] > maxV {
				maxV = cv[p]
			}
			if cr[p] == j {
				hasDiag = true
			}
		}
		start, at := len(rows), len(cr)
		if !hasDiag && a.SortedCols {
			at, _ = slices.BinarySearch(cr, j)
		}
		rows, vals = append(rows, cr[:at]...), append(vals, cv[:at]...)
		if !hasDiag {
			if maxV == 0 {
				maxV = 1
			}
			rows, vals = append(rows, j), append(vals, maxV)
		}
		rows, vals = append(rows, cr[at:]...), append(vals, cv[at:]...)
		if !a.SortedCols {
			sorter.Sort(rows[start:], vals[start:])
		}
		w := start
		for p := start; p < len(rows); {
			r, v := rows[p], vals[p]
			for p++; p < len(rows) && rows[p] == r; p++ {
				v += vals[p]
			}
			rows[w], vals[w] = r, v
			w++
		}
		rows, vals = rows[:w], vals[:w]
		out.ColPtr[j+1] = int64(w)
	}
	out.RowIdx, out.Val = rows, vals
	return out
}

// NormalizeColumns scales each column to sum to one (column-stochastic), in
// place. Empty columns are left empty.
func NormalizeColumns(m *spmat.CSC) {
	for j := int32(0); j < m.Cols; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		var sum float64
		for p := lo; p < hi; p++ {
			sum += m.Val[p]
		}
		if sum == 0 {
			continue
		}
		inv := 1 / sum
		for p := lo; p < hi; p++ {
			m.Val[p] *= inv
		}
	}
}

// Inflate raises every entry to the given power, in place.
func Inflate(m *spmat.CSC, power float64) {
	if power == 1 {
		return
	}
	for i, v := range m.Val {
		m.Val[i] = pow(v, power)
	}
}

// pow is a positive-base power; inflation powers are usually 2 so square
// directly when possible.
func pow(v, p float64) float64 {
	if p == 2 {
		return v * v
	}
	// Inflation operates on probabilities (v ≥ 0).
	if v <= 0 {
		return 0
	}
	return math.Exp(p * math.Log(v))
}

// Prune drops entries below threshold and keeps at most topK entries per
// column (the largest ones, ties broken by lower row index), in place: the
// column pointers too, so the only array it allocates is the scratch a
// column's values are sorted in to find its cut.
func Prune(m *spmat.CSC, threshold float64, topK int) {
	m.Filter(func(_, _ int32, v float64) bool { return v >= threshold })
	if topK <= 0 {
		return
	}
	var longest int64
	for j := int32(0); j < m.Cols; j++ {
		longest = max(longest, m.ColPtr[j+1]-m.ColPtr[j])
	}
	if longest <= int64(topK) {
		return
	}
	tmp := make([]float64, longest)
	w, lo := int64(0), m.ColPtr[0]
	for j := int32(0); j < m.Cols; j++ {
		// Column j's end is read before its slot takes the compacted end.
		hi := m.ColPtr[j+1]
		n := int(hi - lo)
		if n <= topK {
			copy(m.RowIdx[w:], m.RowIdx[lo:hi])
			copy(m.Val[w:], m.Val[lo:hi])
			w += int64(n)
		} else {
			// cut = topK-th largest value in the column.
			sorted := tmp[:n]
			copy(sorted, m.Val[lo:hi])
			slices.Sort(sorted)
			cut := sorted[n-topK]
			// Entries equal to the cut may exceed the budget; admit them in
			// stored order until topK is reached.
			atCutBudget := topK
			for _, v := range sorted[n-topK:] {
				if v > cut {
					atCutBudget--
				}
			}
			for p := lo; p < hi; p++ {
				v := m.Val[p]
				if v > cut {
					m.RowIdx[w] = m.RowIdx[p]
					m.Val[w] = v
					w++
				} else if v == cut && atCutBudget > 0 {
					m.RowIdx[w] = m.RowIdx[p]
					m.Val[w] = v
					w++
					atCutBudget--
				}
			}
		}
		m.ColPtr[j+1] = w
		lo = hi
	}
	m.RowIdx = m.RowIdx[:w]
	m.Val = m.Val[:w]
}

// Chaos is the convergence measure: max over non-empty columns of
// (max entry − Σ entries²). A doubly idempotent matrix has chaos 0.
func Chaos(m *spmat.CSC) float64 {
	var chaos float64
	for j := int32(0); j < m.Cols; j++ {
		_, vals := m.Column(j)
		if len(vals) == 0 {
			continue
		}
		var max, sumsq float64
		for _, v := range vals {
			if v > max {
				max = v
			}
			sumsq += v * v
		}
		if c := max - sumsq; c > chaos {
			chaos = c
		}
	}
	return chaos
}

// Interpret extracts clusters from the converged matrix: each column joins
// the component of its strongest row (attractor), and connected components
// of that assignment are the clusters.
func Interpret(m *spmat.CSC) (labels []int32, numClusters int) {
	n := m.Cols
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int32) {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[rx] = ry
		}
	}
	for j := int32(0); j < n; j++ {
		rows, vals := m.Column(j)
		if len(rows) == 0 {
			continue
		}
		best, bestV := rows[0], vals[0]
		for p := 1; p < len(rows); p++ {
			if vals[p] > bestV || (vals[p] == bestV && rows[p] < best) {
				best, bestV = rows[p], vals[p]
			}
		}
		union(j, best)
	}
	labels = make([]int32, n)
	next := int32(0)
	idOf := map[int32]int32{}
	for j := int32(0); j < n; j++ {
		root := find(j)
		id, ok := idOf[root]
		if !ok {
			id = next
			idOf[root] = id
			next++
		}
		labels[j] = id
	}
	return labels, int(next)
}
