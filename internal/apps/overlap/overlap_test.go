package overlap

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// TestMain runs this package's tests with returned chunks poisoned
// (spmat.PoisonReleased). The batch a core.MultiplyDiscard hook is
// handed is borrowed for the call: once the hook returns, its entries are
// every row −1 and every value NaN, so a hook that read its piece after
// returning would fail the comparison with the serial reference.
func TestMain(m *testing.M) {
	spmat.PoisonReleased.Store(true)
	os.Exit(m.Run())
}

// bruteForce counts shared k-mers for every read pair directly.
func bruteForce(a *spmat.CSC, minShared int64) []Pair {
	sets := make([]map[int32]bool, a.Rows)
	for i := range sets {
		sets[i] = map[int32]bool{}
	}
	for _, t := range a.Triples() {
		sets[t.Row][t.Col] = true
	}
	var out []Pair
	for i := int32(0); i < a.Rows; i++ {
		for j := i + 1; j < a.Rows; j++ {
			var shared int64
			for k := range sets[i] {
				if sets[j][k] {
					shared++
				}
			}
			if shared >= minShared {
				out = append(out, Pair{R1: i, R2: j, Shared: shared})
			}
		}
	}
	sortPairs(out)
	return out
}

func equalPairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSerialMatchesBruteForce(t *testing.T) {
	a := genmat.Kmer(genmat.KmerConfig{Reads: 60, Kmers: 400, KmersPerRead: 8, Overlap: 0.5, Seed: 1})
	for _, min := range []int64{1, 2, 3} {
		got, err := FindPairsSerial(a, min)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(a, min)
		if !equalPairs(got, want) {
			t.Errorf("minShared=%d: %d pairs, brute force %d", min, len(got), len(want))
		}
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	a := genmat.Kmer(genmat.KmerConfig{Reads: 48, Kmers: 600, KmersPerRead: 6, Overlap: 0.4, Seed: 2})
	want, err := FindPairsSerial(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct{ p, l, b int }{{4, 1, 1}, {8, 2, 2}, {16, 4, 3}} {
		rc := core.RunConfig{P: cfg.p, L: cfg.l,
			Cost: mpi.CostModel{AlphaSec: 1e-6, BetaSecPerByte: 1e-9},
			Opts: core.Options{ForceBatches: cfg.b}}
		got, summary, err := FindPairsDistributed(a, 2, rc)
		if err != nil {
			t.Fatal(err)
		}
		if !equalPairs(got, want) {
			t.Errorf("p=%d l=%d b=%d: %d pairs, want %d", cfg.p, cfg.l, cfg.b, len(got), len(want))
		}
		if summary == nil || summary.TotalSeconds() <= 0 {
			t.Error("missing metering")
		}
	}
}

func TestThresholdFilters(t *testing.T) {
	// Two reads share exactly 3 k-mers; a third shares 1 with each.
	ts := []spmat.Triple{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1}, {Row: 0, Col: 2, Val: 1}, {Row: 0, Col: 3, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}, {Row: 1, Col: 2, Val: 1}, {Row: 1, Col: 9, Val: 1},
		{Row: 2, Col: 3, Val: 1}, {Row: 2, Col: 9, Val: 1},
	}
	a, _ := spmat.FromTriples(3, 10, ts, nil)
	got, err := FindPairsSerial(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].R1 != 0 || got[0].R2 != 1 || got[0].Shared != 3 {
		t.Fatalf("pairs=%v, want [(0,1,3)]", got)
	}
	got1, _ := FindPairsSerial(a, 1)
	if len(got1) != 3 {
		t.Errorf("minShared=1: %d pairs, want 3", len(got1))
	}
}

func TestRejectsBadThreshold(t *testing.T) {
	a := spmat.New(2, 2)
	if _, err := FindPairsSerial(a, 0); err == nil {
		t.Error("minShared=0 accepted")
	}
	if _, _, err := FindPairsDistributed(a, 0, core.RunConfig{P: 1, L: 1}); err == nil {
		t.Error("minShared=0 accepted by distributed path")
	}
}

func TestNoOverlapsNoPairs(t *testing.T) {
	// Disjoint k-mer sets → no pairs.
	ts := []spmat.Triple{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}, {Row: 2, Col: 2, Val: 1},
	}
	a, _ := spmat.FromTriples(3, 3, ts, nil)
	got, err := FindPairsSerial(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("pairs=%v, want none", got)
	}
}
