package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/genmat"
	"repro/internal/spmat"
)

// streamed is what a daemon sends for the product the results hold: the wire
// encoding ProductSegments writes, checked against the length it announces.
func streamed(t *testing.T, results []*Result, rows, cols int32) []byte {
	t.Helper()
	seg, err := ProductSegments(results, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := seg.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n != seg.CommBytes() {
		t.Fatalf("wrote %d bytes, reported %d, announced %d", buf.Len(), n, seg.CommBytes())
	}
	return buf.Bytes()
}

// TestStreamedProductIsAssembledBytes holds the encoding streamed from the
// ranks' pieces byte-equal to serializing the assembled product, over
// schedule × format × (p, l) × b, on a k-mer product whose encoding is
// hypersparse and a protein product whose encoding is dense, with the pieces
// as the ranks left them, as a hook left them unsorted, and as a discarding
// hook emptied them — and on an empty product.
func TestStreamedProductIsAssembledBytes(t *testing.T) {
	kmer := genmat.Kmer(genmat.KmerConfig{Reads: 256, Kmers: 8192, KmersPerRead: 8, Overlap: 0.08, Seed: 11})
	protein := genmat.SymmetricPermute(genmat.ProteinSimilarity(8, 8, 12), 12)
	workloads := []struct {
		name  string
		a, b  *spmat.CSC
		hyper bool
	}{
		{"kmer-AtA", spmat.Transpose(kmer), kmer, true},
		{"protein-AA", protein, protein, false},
		{"empty", spmat.New(96, 80), spmat.New(80, 70), false},
	}
	grids := []struct{ p, l, b int }{{16, 4, 3}, {16, 1, 2}, {4, 1, 1}, {64, 16, 2}}
	hooks := map[string]BatchHook{
		"no hook": nil,
		"unsorted copy": func(_ int, _ []int32, c *spmat.CSC) *spmat.CSC {
			u := c.Clone()
			for j := int32(0); j < u.Cols; j++ {
				rows, vals := u.Column(j)
				slices.Reverse(rows)
				slices.Reverse(vals)
			}
			u.SortedCols = false
			return u
		},
		"discard": func(_ int, _ []int32, c *spmat.CSC) *spmat.CSC { return spmat.New(c.Rows, c.Cols) },
	}
	for _, wl := range workloads {
		for _, g := range grids {
			for _, f := range allFormats {
				for _, pipeline := range []bool{false, true} {
					for hookName, hook := range hooks {
						label := fmt.Sprintf("%s p=%d l=%d b=%d %v pipeline=%v %s", wl.name, g.p, g.l, g.b, f, pipeline, hookName)
						rc := RunConfig{P: g.p, L: g.l, Cost: testCM, Opts: Options{ForceBatches: g.b, Format: f, Pipeline: pipeline}}
						results, _, err := MultiplyRanks(wl.a, wl.b, rc, func(int) BatchHook { return hook })
						if err != nil {
							t.Fatal(err)
						}
						c, err := AssembleResults(results, wl.a.Rows, wl.b.Cols)
						if err != nil {
							t.Fatal(err)
						}
						want := c.Serialize()
						if hookName == "no hook" && c.NNZ() > 0 && (want[16]&2 != 0) != wl.hyper {
							t.Fatalf("%s: the product's encoding is not the one the workload is for", label)
						}
						if got := streamed(t, results, wl.a.Rows, wl.b.Cols); !bytes.Equal(got, want) {
							t.Fatalf("%s: streamed %d bytes differ from the assembled product's %d", label, len(got), len(want))
						}
					}
				}
			}
		}
	}
}
