package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/spmat"
)

// The oracles in this file are algebraic identities, not a second kernel: a
// distributed product is held to another distributed product of permuted or
// regrouped operands, and the permutations are applied here through triples,
// with no code shared with the engine's split, kernels, merges or assembly. Operand
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

// identityGrids are the grids the identities run on: q > 1 with l > 1 and
// l = 1, q = 1 with l > 1, and one rank.
var identityGrids = []struct{ p, l, b int }{{16, 4, 3}, {4, 1, 2}, {16, 16, 1}, {1, 1, 1}}

// forIdentityRuns calls check with every grid × schedule × format the
// identities run on, as a label and a multiply under that configuration.
func forIdentityRuns(t *testing.T, check func(label string, multiply func(x, y *spmat.CSC) *spmat.CSC)) {
	for _, g := range identityGrids {
		for _, pipeline := range []bool{false, true} {
			for _, f := range allFormats {
				label := fmt.Sprintf("p%d-l%d-b%d/pipeline=%v/%v", g.p, g.l, g.b, pipeline, f)
				rc := RunConfig{P: g.p, L: g.l, Cost: testCM, Opts: Options{ForceBatches: g.b, Pipeline: pipeline, Format: f}}
				check(label, func(x, y *spmat.CSC) *spmat.CSC {
					c, _, _, err := Multiply(x, y, rc, nil)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return c
				})
			}
		}
	}
}

// TestAssociativity checks (AB)C = A(BC) across schedule × format × grid.
// The operands chain four distinct dimensions, 50×40 · 40×65 · 65×35, so a
// product that transposes an index or takes a dimension from the wrong
// operand fails on shape or on entries; each side is two distributed
// products, the first one's output fed back as an operand of the second.
func TestAssociativity(t *testing.T) {
	a := intMat(t, 50, 40, 300, 711)
	b := intMat(t, 40, 65, 320, 712)
	c := intMat(t, 65, 35, 280, 713)
	forIdentityRuns(t, func(label string, multiply func(x, y *spmat.CSC) *spmat.CSC) {
		left, right := multiply(multiply(a, b), c), multiply(a, multiply(b, c))
		if left.Rows != a.Rows || left.Cols != c.Cols || left.NNZ() == 0 {
			t.Fatalf("%s: (AB)C is %v, want a nonempty %dx%d", label, left, a.Rows, c.Cols)
		}
		if spmat.FingerprintOf(left) != spmat.FingerprintOf(right) {
			t.Errorf("%s: (AB)C differs from A(BC)", label)
		}
	})
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
	forIdentityRuns(t, func(label string, multiply func(x, y *spmat.CSC) *spmat.CSC) {
		c := multiply(a, b)
		if spmat.FingerprintOf(multiply(pa, bq)) != spmat.FingerprintOf(permuted(t, c, p, q)) {
			t.Errorf("%s: (PA)(BQ) differs from P(AB)Q", label)
		}
		if spmat.FingerprintOf(multiply(api, pib)) != spmat.FingerprintOf(c) {
			t.Errorf("%s: (AΠᵀ)(ΠB) differs from AB", label)
		}
	})
}
