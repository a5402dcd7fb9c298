package bfs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// refBFS is a queue-based reference implementation.
func refBFS(adj *spmat.CSC, source int32) []int32 {
	n := adj.Rows
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[source] = 0
	queue := []int32{source}
	// Neighbors of j are the rows of column j (j → row edges).
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		rows, _ := adj.Column(v)
		for _, w := range rows {
			if level[w] == -1 {
				level[w] = level[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return level
}

func pathGraph(n int32) *spmat.CSC {
	var ts []spmat.Triple
	for i := int32(0); i+1 < n; i++ {
		ts = append(ts, spmat.Triple{Row: i + 1, Col: i, Val: 1}, spmat.Triple{Row: i, Col: i + 1, Val: 1})
	}
	m, _ := spmat.FromTriples(n, n, ts, nil)
	return m
}

func TestPathGraphLevels(t *testing.T) {
	adj := pathGraph(6)
	levels, err := MultiSourceSerial(adj, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 6; v++ {
		if levels.At(v, 0) != v {
			t.Errorf("level(%d)=%d, want %d", v, levels.At(v, 0), v)
		}
	}
	ecc := levels.Eccentricity()
	if ecc[0] != 5 {
		t.Errorf("eccentricity=%d, want 5", ecc[0])
	}
}

func TestMultiSourceMatchesReference(t *testing.T) {
	adj := genmat.RMAT(genmat.RMATConfig{Scale: 7, EdgeFactor: 6, Symmetrize: true, Seed: 1})
	sources := []int32{0, 7, 33, 100}
	levels, err := MultiSourceSerial(adj, sources)
	if err != nil {
		t.Fatal(err)
	}
	for si, s := range sources {
		want := refBFS(adj, s)
		for v := int32(0); v < adj.Rows; v++ {
			if got := levels.At(v, int32(si)); got != want[v] {
				t.Fatalf("source %d vertex %d: level %d, want %d", s, v, got, want[v])
			}
		}
	}
}

func TestDisconnectedUnreachable(t *testing.T) {
	// Two disconnected edges: 0–1 and 2–3.
	ts := []spmat.Triple{
		{Row: 1, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 3, Col: 2, Val: 1}, {Row: 2, Col: 3, Val: 1},
	}
	adj, _ := spmat.FromTriples(4, 4, ts, nil)
	levels, err := MultiSourceSerial(adj, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if levels.At(2, 0) != -1 || levels.At(3, 0) != -1 {
		t.Error("unreachable vertices should stay at -1")
	}
	reached := 0
	for v := int32(0); v < levels.NumVertices; v++ {
		if levels.At(v, 0) >= 0 {
			reached++
		}
	}
	if reached != 2 {
		t.Errorf("reached=%d, want 2", reached)
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	adj := genmat.RMAT(genmat.RMATConfig{Scale: 6, EdgeFactor: 8, Symmetrize: true, Seed: 2})
	sources := []int32{1, 5, 9, 13, 21, 40}
	want, err := MultiSourceSerial(adj, sources)
	if err != nil {
		t.Fatal(err)
	}
	rc := core.RunConfig{P: 4, L: 1,
		Cost: mpi.CostModel{AlphaSec: 1e-6, BetaSecPerByte: 1e-9},
		Opts: core.Options{ForceBatches: 2}}
	got, err := MultiSourceDistributed(adj, sources, rc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Level {
		if want.Level[i] != got.Level[i] {
			t.Fatalf("level[%d]: distributed %d, serial %d", i, got.Level[i], want.Level[i])
		}
	}
}

func TestRejectsBadInputs(t *testing.T) {
	if _, err := MultiSourceSerial(spmat.New(3, 4), []int32{0}); err == nil {
		t.Error("rectangular adjacency accepted")
	}
	adj := pathGraph(4)
	if _, err := MultiSourceSerial(adj, nil); err == nil {
		t.Error("empty source list accepted")
	}
	if _, err := MultiSourceSerial(adj, []int32{9}); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestDirectedBFS(t *testing.T) {
	// Directed cycle 0→1→2→0 (edge j→row means adj(row,j)=1).
	ts := []spmat.Triple{
		{Row: 1, Col: 0, Val: 1}, {Row: 2, Col: 1, Val: 1}, {Row: 0, Col: 2, Val: 1},
	}
	adj, _ := spmat.FromTriples(3, 3, ts, nil)
	levels, err := MultiSourceSerial(adj, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if levels.At(1, 0) != 1 || levels.At(2, 0) != 2 {
		t.Errorf("directed levels: %d %d", levels.At(1, 0), levels.At(2, 0))
	}
}
