package mcl

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// twoCliques builds two disjoint k-cliques joined by a single weak edge —
// the canonical MCL test graph.
func twoCliques(k int32, bridge float64) *spmat.CSC {
	n := 2 * k
	var ts []spmat.Triple
	addClique := func(off int32) {
		for i := int32(0); i < k; i++ {
			for j := int32(0); j < k; j++ {
				if i != j {
					ts = append(ts, spmat.Triple{Row: off + i, Col: off + j, Val: 1})
				}
			}
		}
	}
	addClique(0)
	addClique(k)
	if bridge > 0 {
		ts = append(ts, spmat.Triple{Row: 0, Col: k, Val: bridge}, spmat.Triple{Row: k, Col: 0, Val: bridge})
	}
	m, err := spmat.FromTriples(n, n, ts, nil)
	if err != nil {
		panic(err)
	}
	return m
}

func TestClusterTwoCliques(t *testing.T) {
	a := twoCliques(5, 0.1)
	res, err := Cluster(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("did not converge")
	}
	if res.NumClusters != 2 {
		t.Fatalf("found %d clusters, want 2", res.NumClusters)
	}
	// All members of a clique share a label; the cliques differ.
	for i := int32(1); i < 5; i++ {
		if res.Labels[i] != res.Labels[0] {
			t.Errorf("node %d not with clique 1", i)
		}
		if res.Labels[5+i] != res.Labels[5] {
			t.Errorf("node %d not with clique 2", 5+i)
		}
	}
	if res.Labels[0] == res.Labels[5] {
		t.Error("cliques merged")
	}
}

func TestClusterDisconnectedComponents(t *testing.T) {
	a := twoCliques(4, 0) // no bridge at all
	res, err := Cluster(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Errorf("found %d clusters, want 2", res.NumClusters)
	}
}

func TestClusterDistributedMatchesSerial(t *testing.T) {
	a := twoCliques(6, 0.05)
	serial, err := Cluster(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Cluster(a, Config{
		Dist: &core.RunConfig{P: 4, L: 1, Cost: mpi.CostModel{AlphaSec: 1e-6, BetaSecPerByte: 1e-9},
			Opts: core.Options{ForceBatches: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if serial.NumClusters != dist.NumClusters {
		t.Fatalf("serial %d clusters, distributed %d", serial.NumClusters, dist.NumClusters)
	}
	// Same partition up to relabeling.
	remap := map[int32]int32{}
	for i := range serial.Labels {
		if got, ok := remap[serial.Labels[i]]; ok {
			if got != dist.Labels[i] {
				t.Fatalf("partitions differ at node %d", i)
			}
		} else {
			remap[serial.Labels[i]] = dist.Labels[i]
		}
	}
	// Distributed iterations carry metering.
	if len(dist.Iters) == 0 || dist.Iters[0].Summary == nil {
		t.Error("distributed iterations missing summaries")
	}
	if dist.Iters[0].Batches < 2 {
		t.Errorf("expected forced batches, got %d", dist.Iters[0].Batches)
	}
}

func TestNormalizeColumns(t *testing.T) {
	m := spmat.Dense(3, 2, []float64{1, 4, 3, 0, 0, 6})
	NormalizeColumns(m)
	for j := int32(0); j < 2; j++ {
		_, vals := m.Column(j)
		var sum float64
		for _, v := range vals {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("column %d sums to %v", j, sum)
		}
	}
}

func TestNormalizeEmptyColumn(t *testing.T) {
	m := spmat.New(3, 3)
	NormalizeColumns(m) // must not panic or divide by zero
	if m.NNZ() != 0 {
		t.Error("empty matrix changed")
	}
}

func TestInflateSquares(t *testing.T) {
	m := spmat.Dense(2, 1, []float64{0.5, 0.25})
	Inflate(m, 2)
	if m.At(0, 0) != 0.25 || m.At(1, 0) != 0.0625 {
		t.Errorf("inflation wrong: %v %v", m.At(0, 0), m.At(1, 0))
	}
	// Non-integer power.
	m2 := spmat.Dense(1, 1, []float64{0.25})
	Inflate(m2, 1.5)
	if math.Abs(m2.At(0, 0)-0.125) > 1e-12 {
		t.Errorf("power 1.5 of 0.25 = %v, want 0.125", m2.At(0, 0))
	}
}

func TestPruneThresholdAndTopK(t *testing.T) {
	m := spmat.Dense(5, 1, []float64{0.5, 0.3, 0.15, 0.04, 0.01})
	Prune(m, 0.05, 2)
	if m.NNZ() != 2 {
		t.Fatalf("nnz=%d, want 2", m.NNZ())
	}
	if m.At(0, 0) != 0.5 || m.At(1, 0) != 0.3 {
		t.Error("kept wrong entries")
	}
}

func TestPruneTies(t *testing.T) {
	m := spmat.Dense(4, 1, []float64{0.25, 0.25, 0.25, 0.25})
	Prune(m, 0, 2)
	if m.NNZ() != 2 {
		t.Fatalf("nnz=%d, want exactly topK=2 under ties", m.NNZ())
	}
}

func TestChaosConverged(t *testing.T) {
	// A doubly idempotent column (single 1) has chaos 0.
	m := spmat.Dense(2, 2, []float64{1, 0, 0, 1})
	if c := Chaos(m); c != 0 {
		t.Errorf("chaos=%v, want 0", c)
	}
	// Uniform column 0.5/0.5: max 0.5, sumsq 0.5 → chaos 0... use 3 entries.
	m2 := spmat.Dense(3, 1, []float64{0.5, 0.25, 0.25})
	want := 0.5 - (0.25 + 0.0625 + 0.0625)
	if c := Chaos(m2); math.Abs(c-want) > 1e-12 {
		t.Errorf("chaos=%v, want %v", c, want)
	}
}

func TestAddSelfLoops(t *testing.T) {
	m := spmat.Dense(3, 3, []float64{0, 0.5, 0, 0.5, 0.8, 0, 0, 0, 0})
	out := AddSelfLoops(m)
	if out.At(0, 0) != 0.5 { // column max
		t.Errorf("diag(0)=%v, want column max 0.5", out.At(0, 0))
	}
	if out.At(1, 1) != 0.8 { // already present, kept
		t.Errorf("diag(1)=%v, want 0.8", out.At(1, 1))
	}
	if out.At(2, 2) != 1 { // empty column defaults to 1
		t.Errorf("diag(2)=%v, want 1", out.At(2, 2))
	}
}

// addSelfLoopsAppend is AddSelfLoops as it was before it sized its triples:
// the same walk, growing the triples by append.
func addSelfLoopsAppend(a *spmat.CSC) *spmat.CSC {
	var ts []spmat.Triple
	for j := int32(0); j < a.Cols; j++ {
		rows, vals := a.Column(j)
		var maxV float64
		hasDiag := false
		for p := range rows {
			if vals[p] > maxV {
				maxV = vals[p]
			}
			if rows[p] == j {
				hasDiag = true
			}
			ts = append(ts, spmat.Triple{Row: rows[p], Col: j, Val: vals[p]})
		}
		if !hasDiag {
			if maxV == 0 {
				maxV = 1
			}
			ts = append(ts, spmat.Triple{Row: j, Col: j, Val: maxV})
		}
	}
	out, err := spmat.FromTriples(a.Rows, a.Cols, ts, nil)
	if err != nil {
		panic(err)
	}
	return out
}

// TestAddSelfLoopsMatchesAppend holds AddSelfLoops bit for bit to the
// append-grown version on sorted and unsorted columns, an empty column, a
// diagonal already present, an all-negative column (whose loop is 1) and a
// protein-similarity matrix; and it allocates one array of triples beyond
// what FromTriples allocates for them.
func TestAddSelfLoopsMatchesAppend(t *testing.T) {
	// Columns: 0 unsorted without its diagonal, 1 empty, 2 sorted with its
	// diagonal, 3 all negative, 4 unsorted with its diagonal.
	hand := &spmat.CSC{
		Rows: 5, Cols: 5,
		ColPtr: []int64{0, 3, 3, 5, 7, 10},
		RowIdx: []int32{4, 1, 2, 0, 2, 1, 4, 4, 0, 3},
		Val:    []float64{0.5, 2, 0.25, 3, 1.5, -1, -2, 0.75, 0.5, 1},
	}
	protein := genmat.SymmetricPermute(genmat.ProteinSimilarity(7, 6, 2), 2)
	for name, a := range map[string]*spmat.CSC{"by hand": hand, "protein": protein, "no columns": spmat.New(0, 0)} {
		got, want := AddSelfLoops(a), addSelfLoopsAppend(a)
		if got.Rows != want.Rows || got.Cols != want.Cols || got.SortedCols != want.SortedCols ||
			!slices.Equal(got.ColPtr, want.ColPtr) || !slices.Equal(got.RowIdx, want.RowIdx) ||
			!slices.EqualFunc(got.Val, want.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("%s: AddSelfLoops gives %v, the append-grown version %v", name, got, want)
		}
	}
	if loops := AddSelfLoops(hand); loops.At(3, 3) != 1 || loops.At(1, 1) != 1 || loops.At(2, 2) != 1.5 || loops.At(0, 0) != 2 {
		t.Fatalf("loops %v %v %v %v, want 2 (column max), 1 (empty), 1.5 (kept), 1 (all negative)", loops.At(0, 0), loops.At(1, 1), loops.At(2, 2), loops.At(3, 3))
	}

	if got := testing.AllocsPerRun(5, func() { AddSelfLoops(protein) }); got > 4 {
		t.Fatalf("AddSelfLoops made %.0f allocations, more than the output's header and three arrays", got)
	}
}

// A column holding a row twice has it summed, in FromTriples' order, whether
// a's columns are flagged sorted (the diagonal merged in at its row) or not
// (the column sorted after the diagonal is appended).
func TestAddSelfLoopsSumsDuplicates(t *testing.T) {
	for _, sorted := range []bool{true, false} {
		rows := []int32{0, 2, 2, 3, 1, 1, 4}
		if !sorted {
			rows = []int32{3, 2, 0, 2, 4, 1, 1}
		}
		a := &spmat.CSC{
			Rows: 5, Cols: 3,
			ColPtr:     []int64{0, 4, 4, 7},
			RowIdx:     rows,
			Val:        []float64{0.1, 0.7, 0.3, 0.2, 1e16, 1, -1e16},
			SortedCols: sorted,
		}
		got, want := AddSelfLoops(a), addSelfLoopsAppend(a)
		if got.SortedCols != want.SortedCols || !slices.Equal(got.ColPtr, want.ColPtr) || !slices.Equal(got.RowIdx, want.RowIdx) ||
			!slices.EqualFunc(got.Val, want.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("sorted %v: AddSelfLoops gives %v %v %v, FromTriples %v %v %v", sorted, got.ColPtr, got.RowIdx, got.Val, want.ColPtr, want.RowIdx, want.Val)
		}
	}
}

// Filter compacts a matrix in place, column pointers included, and allocates
// nothing; Prune with a top-K cut allocates only the scratch it sorts a
// column's values in. Both give what they gave with fresh column pointers.
func TestPruneCompactsInPlace(t *testing.T) {
	protein := genmat.SymmetricPermute(genmat.ProteinSimilarity(7, 6, 2), 2)
	mallocs := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	thr := protein.Val[len(protein.Val)/2]
	m := protein.Clone()
	if n := mallocs(func() { m.Filter(func(_, _ int32, v float64) bool { return v >= thr }) }); n != 0 {
		t.Errorf("Filter made %d allocations", n)
	}
	var ts []spmat.Triple
	for _, tr := range protein.Triples() {
		if tr.Val >= thr {
			ts = append(ts, tr)
		}
	}
	if w, err := spmat.FromTriples(protein.Rows, protein.Cols, ts, nil); err != nil || !spmat.Equal(m, w) {
		t.Fatalf("Filter kept %v, want %v (%v)", m, w, err)
	}

	m = protein.Clone()
	if n := mallocs(func() { Prune(m, 0, 3) }); n != 1 {
		t.Errorf("Prune with top-3 made %d allocations, want 1 (its sort scratch)", n)
	}
	for j := int32(0); j < m.Cols; j++ {
		rows, vals := m.Column(j)
		full, fullVals := protein.Column(j)
		if len(rows) != min(3, len(full)) {
			t.Fatalf("column %d keeps %d of %d entries under top-3", j, len(rows), len(full))
		}
		sorted := slices.Clone(fullVals)
		slices.Sort(sorted)
		for p := range rows {
			if vals[p] < sorted[len(sorted)-len(rows)] {
				t.Fatalf("column %d keeps %v, below its top-3", j, vals[p])
			}
		}
	}
}

func TestInterpretStar(t *testing.T) {
	// Columns all point at row 0 → one cluster.
	m := spmat.Dense(3, 3, []float64{1, 1, 1, 0, 0, 0, 0, 0, 0})
	labels, n := Interpret(m)
	if n != 1 {
		t.Fatalf("clusters=%d, want 1", n)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("star nodes not in one cluster")
	}
}

func TestClusterRejectsRectangular(t *testing.T) {
	if _, err := Cluster(spmat.New(3, 4), Config{}); err == nil {
		t.Error("rectangular matrix accepted")
	}
}
