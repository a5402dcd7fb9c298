package spmat

import (
	"bytes"
	"testing"
)

// shortMtx is the input that killed a fuzz worker: its size line declares two
// entries, none follow, and the 222 million columns it also declares are 1.8 GB
// of column pointers. The reader must refuse it before allocating them.
const shortMtx = "%%MatrixMarket matrix coordinate real general\n0 222222222 2\n"

// FuzzReadMatrixMarket asserts the reader never panics, that every accepted
// parse satisfies the CSC invariants, and that accepted matrices survive a
// write → read round trip with shape and nonzero count intact. Seeds cover
// every supported field/symmetry combination plus the malformed headers the
// parser must reject gracefully. CI runs a bounded fuzz pass via `make fuzz`.
func FuzzReadMatrixMarket(f *testing.F) {
	seeds := []string{
		"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.5\n3 2 -2\n",
		"%%MatrixMarket matrix coordinate real symmetric\n% comment\n3 3 2\n2 1 4\n3 3 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n4 5 3\n1 1\n4 5\n2 3\n",
		"%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 2 7\n",
		"%%MatrixMarket matrix coordinate real general\n0 0 0\n",
		"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n1 1 2\n", // duplicate summed
		"%%MatrixMarket matrix coordinate real general\n\n%skip\n2 2 1\n1 2 3e-4\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 0 0\n", // unsupported field
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",        // unsupported format
		"not a header\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n-3 3 2\n",                   // negative dims
		"%%MatrixMarket matrix coordinate real general\n3 3 -1\n",                   // negative nnz
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n9 9 1\n",             // out of range
		"%%MatrixMarket matrix coordinate real general\n2 2 9999999999999\n1 1 1\n", // lying nnz
		"",
		shortMtx,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	if _, err := ReadMatrixMarket(bytes.NewReader([]byte(shortMtx))); err == nil {
		f.Fatal("a size line declaring entries the input does not hold was accepted")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMatrixMarket(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs only need to fail cleanly
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted matrix violates invariants: %v\ninput: %q", err, data)
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			t.Fatalf("write of accepted matrix failed: %v", err)
		}
		m2, err := ReadMatrixMarket(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\nwrote: %q", err, buf.Bytes())
		}
		if m2.Rows != m.Rows || m2.Cols != m.Cols || m2.NNZ() != m.NNZ() {
			t.Fatalf("round trip changed shape/nnz: %v -> %v", m, m2)
		}
	})
}
