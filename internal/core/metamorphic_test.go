package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/spmat"
)

// The oracles in this file are algebraic identities, not a second kernel: a
// distributed product is held to another distributed product of permuted
// operands, and the permutations are applied here through triples, with no
// code shared with the engine's split, kernels, merges or assembly. Operand
// values are small integers, so every sum is exact in float64 whatever order
// a grid accumulates it in, and the two sides must agree bit for bit
// (spmat.FingerprintOf: the same entries, in the same sorted order).

// intMat is a rows×cols operand of about nnz entries with values in 1..4.
func intMat(t *testing.T, rows, cols int32, nnz int, seed int64) *spmat.CSC {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := make([]spmat.Triple, nnz)
	for x := range ts {
		ts[x] = spmat.Triple{Row: rng.Int31n(rows), Col: rng.Int31n(cols), Val: float64(1 + rng.Intn(4))}
	}
	keepFirst := func(v, _ float64) float64 { return v }
	m, err := spmat.FromTriples(rows, cols, ts, keepFirst)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randPerm is a random permutation of 0..n−1.
func randPerm(n int32, seed int64) []int32 {
	perm := make([]int32, n)
	for i, v := range rand.New(rand.NewSource(seed)).Perm(int(n)) {
		perm[i] = int32(v)
	}
	return perm
}

// permuted moves entry (i, j) of m to (rowPerm[i], colPerm[j]); a nil
// permutation is the identity.
func permuted(t *testing.T, m *spmat.CSC, rowPerm, colPerm []int32) *spmat.CSC {
	t.Helper()
	ts := make([]spmat.Triple, 0, m.NNZ())
	for j := int32(0); j < m.Cols; j++ {
		rows, vals := m.Column(j)
		c := j
		if colPerm != nil {
			c = colPerm[j]
		}
		for x, i := range rows {
			r := i
			if rowPerm != nil {
				r = rowPerm[i]
			}
			ts = append(ts, spmat.Triple{Row: r, Col: c, Val: vals[x]})
		}
	}
	out, err := spmat.FromTriples(m.Rows, m.Cols, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPermutationIdentities checks two identities across schedule × format ×
// grid, on rectangular operands:
//
//   - P(AB)Q = (PA)(BQ) for a row permutation P of A and a column
//     permutation Q of B: permuting the output is permuting the operands;
//   - AB = (AΠᵀ)(ΠB) for a permutation Π of the inner dimension: it
//     reorders every output entry's sum and moves every flop to another
//     stage and layer, and changes no entry.
func TestPermutationIdentities(t *testing.T) {
	a := intMat(t, 60, 45, 520, 701)
	b := intMat(t, 45, 70, 480, 702)
	p, q, inner := randPerm(a.Rows, 703), randPerm(b.Cols, 704), randPerm(a.Cols, 705)
	pa, bq := permuted(t, a, p, nil), permuted(t, b, nil, q)
	api, pib := permuted(t, a, nil, inner), permuted(t, b, inner, nil)
	for _, g := range []struct{ p, l, b int }{{16, 4, 3}, {4, 1, 2}, {16, 16, 1}, {1, 1, 1}} {
		for _, pipeline := range []bool{false, true} {
			for _, f := range allFormats {
				label := fmt.Sprintf("p%d-l%d-b%d/pipeline=%v/%v", g.p, g.l, g.b, pipeline, f)
				rc := RunConfig{P: g.p, L: g.l, Cost: testCM, Opts: Options{ForceBatches: g.b, Pipeline: pipeline, Format: f}}
				multiply := func(x, y *spmat.CSC) spmat.Fingerprint {
					c, _, _, err := Multiply(x, y, rc, nil)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return spmat.FingerprintOf(c)
				}
				c, _, _, err := Multiply(a, b, rc, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got, want := multiply(pa, bq), spmat.FingerprintOf(permuted(t, c, p, q)); got != want {
					t.Errorf("%s: (PA)(BQ) differs from P(AB)Q", label)
				}
				if got, want := multiply(api, pib), spmat.FingerprintOf(c); got != want {
					t.Errorf("%s: (AΠᵀ)(ΠB) differs from AB", label)
				}
			}
		}
	}
}
