package matching

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/mpi"
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

func TestTwoVertexPair(t *testing.T) {
	// Two vertices sharing two hyperedges must match.
	ts := []spmat.Triple{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1},
	}
	a, _ := spmat.FromTriples(2, 2, ts, nil)
	res, err := HeavyConnectivitySerial(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 1 || res.Mate[0] != 1 || res.Mate[1] != 0 {
		t.Errorf("result %+v", res)
	}
	if res.Weight != 2 {
		t.Errorf("weight=%v, want 2 shared hyperedges", res.Weight)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPrefersHeavierPair(t *testing.T) {
	// Vertices 0-1 share 3 hyperedges, 1-2 share 1: greedy must pick (0,1)
	// and leave 2 unmatched.
	var ts []spmat.Triple
	for e := int32(0); e < 3; e++ {
		ts = append(ts, spmat.Triple{Row: 0, Col: e, Val: 1}, spmat.Triple{Row: 1, Col: e, Val: 1})
	}
	ts = append(ts, spmat.Triple{Row: 1, Col: 3, Val: 1}, spmat.Triple{Row: 2, Col: 3, Val: 1})
	a, _ := spmat.FromTriples(3, 4, ts, nil)
	res, err := HeavyConnectivitySerial(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mate[0] != 1 || res.Mate[2] != -1 {
		t.Errorf("mates=%v", res.Mate)
	}
	if res.Weight != 3 {
		t.Errorf("weight=%v", res.Weight)
	}
}

func TestMatchingIsMaximal(t *testing.T) {
	// On a random incidence matrix, no two unmatched vertices may share a
	// hyperedge (maximality of greedy matching).
	a := genmat.Kmer(genmat.KmerConfig{Reads: 60, Kmers: 120, KmersPerRead: 5, Overlap: 0.5, Seed: 3})
	res, err := HeavyConnectivitySerial(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	sets := make([]map[int32]bool, a.Rows)
	for i := range sets {
		sets[i] = map[int32]bool{}
	}
	for _, tr := range a.Triples() {
		sets[tr.Row][tr.Col] = true
	}
	for u := int32(0); u < a.Rows; u++ {
		if res.Mate[u] != -1 {
			continue
		}
		for v := u + 1; v < a.Rows; v++ {
			if res.Mate[v] != -1 {
				continue
			}
			for k := range sets[u] {
				if sets[v][k] {
					t.Fatalf("unmatched vertices %d and %d share hyperedge %d", u, v, k)
				}
			}
		}
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	a := genmat.Kmer(genmat.KmerConfig{Reads: 48, Kmers: 96, KmersPerRead: 4, Overlap: 0.4, Seed: 4})
	want, err := HeavyConnectivitySerial(a)
	if err != nil {
		t.Fatal(err)
	}
	rc := core.RunConfig{P: 8, L: 2,
		Cost: mpi.CostModel{AlphaSec: 1e-6, BetaSecPerByte: 1e-9},
		Opts: core.Options{ForceBatches: 2}}
	got, summary, err := HeavyConnectivityDistributed(a, rc)
	if err != nil {
		t.Fatal(err)
	}
	// The greedy matcher is deterministic given the same candidates, so the
	// matchings must be identical.
	if got.Matched != want.Matched || got.Weight != want.Weight {
		t.Errorf("distributed: %d pairs weight %v; serial: %d pairs weight %v",
			got.Matched, got.Weight, want.Matched, want.Weight)
	}
	for v := range want.Mate {
		if got.Mate[v] != want.Mate[v] {
			t.Fatalf("mate of %d differs: %d vs %d", v, got.Mate[v], want.Mate[v])
		}
	}
	if summary.Step(core.StepLocalMult).ComputeSeconds <= 0 {
		t.Error("no multiply time metered")
	}
}

func TestEmptyIncidenceRejected(t *testing.T) {
	if _, err := HeavyConnectivitySerial(spmat.New(0, 5)); err == nil {
		t.Error("empty matrix accepted")
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	r := &Result{Mate: []int32{1, -1}}
	if err := r.Validate(); err == nil {
		t.Error("asymmetric matching accepted")
	}
	r2 := &Result{Mate: []int32{0}}
	if err := r2.Validate(); err == nil {
		t.Error("self-match accepted")
	}
}
