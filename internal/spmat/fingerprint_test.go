package spmat

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// A fingerprint must be format-independent in content (hash, dims, nnz) and
// must change when the values change.
func TestFingerprintFormatIndependentContent(t *testing.T) {
	add := func(a, b float64) float64 { return a + b }
	m, err := FromTriples(6, 8, []Triple{
		{0, 0, 1}, {3, 0, 2}, {5, 2, 3}, {1, 7, 4}, {2, 7, 5},
	}, add)
	if err != nil {
		t.Fatal(err)
	}
	fc := FingerprintOf(m)
	fd := FingerprintOf(m.ToDCSC())
	if !fc.ContentEqual(fd) {
		t.Fatalf("CSC and DCSC fingerprints differ in content: %s vs %s", fc.Key(), fd.Key())
	}
	if fc.Fmt == fd.Fmt {
		t.Fatalf("formats should differ, both %q", fc.Fmt)
	}
	if fc.Rows != 6 || fc.Cols != 8 || fc.NNZ != 5 {
		t.Fatalf("fingerprint shape wrong: %+v", fc)
	}
	if fc.Hash == "" || len(fc.Hash) != 64 {
		t.Fatalf("hash should be 64 hex chars, got %q", fc.Hash)
	}

	m2, err := FromTriples(6, 8, []Triple{
		{0, 0, 1}, {3, 0, 2}, {5, 2, 3}, {1, 7, 4}, {2, 7, 9},
	}, add)
	if err != nil {
		t.Fatal(err)
	}
	f2 := FingerprintOf(m2)
	if f2.ContentEqual(fc) {
		t.Fatalf("different values must change the fingerprint")
	}
	if fc.Key() == fd.Key() {
		t.Fatalf("Key must include the format")
	}
}

// The fingerprint's hash is the sha256 of Serialize's bytes, streamed: what
// names a matrix is the hash of the exact bytes that carry it.
func TestFingerprintHashesTheWireBytes(t *testing.T) {
	for _, m := range []*CSC{randomNNZCSC(t, 40, 40, 500, 3), randomNNZCSC(t, 4000, 40000, 12000, 4), New(3, 0)} {
		sum := sha256.Sum256(m.Serialize())
		if got, want := FingerprintOf(m).Hash, hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("%v: fingerprint hash %s, sha256 of the wire %s", m, got, want)
		}
	}
}
