package jaccard

import (
	"math"
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

// bruteForce computes Jaccard for all pairs directly from sets.
func bruteForce(a *spmat.CSC, minJ float64) []Pair {
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
			var inter int
			for k := range sets[i] {
				if sets[j][k] {
					inter++
				}
			}
			union := len(sets[i]) + len(sets[j]) - inter
			if union == 0 {
				continue
			}
			jc := float64(inter) / float64(union)
			if jc >= minJ {
				out = append(out, Pair{R1: i, R2: j, Jaccard: jc})
			}
		}
	}
	sortPairs(out)
	return out
}

func pairsEqual(a, b []Pair, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].R1 != b[i].R1 || a[i].R2 != b[i].R2 {
			return false
		}
		if math.Abs(a[i].Jaccard-b[i].Jaccard) > tol {
			return false
		}
	}
	return true
}

func TestSerialMatchesBruteForce(t *testing.T) {
	a := genmat.Kmer(genmat.KmerConfig{Reads: 50, Kmers: 300, KmersPerRead: 8, Overlap: 0.5, Seed: 1})
	for _, minJ := range []float64{0.05, 0.2, 0.5} {
		got, err := AllPairsSerial(a, minJ)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(a, minJ)
		if !pairsEqual(got, want, 1e-12) {
			t.Errorf("minJ=%v: %d pairs, brute force %d", minJ, len(got), len(want))
		}
	}
}

func TestIdenticalRowsHaveJaccardOne(t *testing.T) {
	ts := []spmat.Triple{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1},
		{Row: 2, Col: 5, Val: 1},
	}
	a, _ := spmat.FromTriples(3, 6, ts, nil)
	pairs, err := AllPairsSerial(a, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].R1 != 0 || pairs[0].R2 != 1 || pairs[0].Jaccard != 1 {
		t.Errorf("pairs=%v, want exactly (0,1,1.0)", pairs)
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	a := genmat.Kmer(genmat.KmerConfig{Reads: 40, Kmers: 400, KmersPerRead: 7, Overlap: 0.4, Seed: 2})
	want, err := AllPairsSerial(a, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct{ p, l, b int }{{4, 1, 2}, {16, 4, 3}} {
		rc := core.RunConfig{P: cfg.p, L: cfg.l,
			Cost: mpi.CostModel{AlphaSec: 1e-6, BetaSecPerByte: 1e-9},
			Opts: core.Options{ForceBatches: cfg.b}}
		got, summary, err := AllPairsDistributed(a, 0.1, rc)
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(got, want, 1e-12) {
			t.Errorf("p=%d l=%d: %d pairs, want %d", cfg.p, cfg.l, len(got), len(want))
		}
		if summary == nil {
			t.Error("missing summary")
		}
	}
}

func TestRejectsBadThreshold(t *testing.T) {
	a := spmat.New(2, 2)
	for _, bad := range []float64{0, -1, 1.5} {
		if _, err := AllPairsSerial(a, bad); err == nil {
			t.Errorf("threshold %v accepted", bad)
		}
		if _, _, err := AllPairsDistributed(a, bad, core.RunConfig{P: 1, L: 1}); err == nil {
			t.Errorf("threshold %v accepted by distributed path", bad)
		}
	}
}

func TestDisjointRowsNoPairs(t *testing.T) {
	ts := []spmat.Triple{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}}
	a, _ := spmat.FromTriples(2, 2, ts, nil)
	pairs, err := AllPairsSerial(a, 0.01)
	if err != nil || len(pairs) != 0 {
		t.Errorf("pairs=%v err=%v, want none", pairs, err)
	}
}
