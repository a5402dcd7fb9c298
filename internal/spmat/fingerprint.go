package spmat

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Fingerprint identifies a matrix's logical content: its shape, nonzero
// count, storage format, and a content hash over the canonical wire bytes.
// Two matrices with equal fingerprints multiply identically under every
// configuration, so a fingerprint pair is a sound cache key for planner
// decisions (the serving layer's plan cache) and for resident-matrix
// identity (loading the same Matrix Market source twice is a no-op).
//
// The hash is computed over Serialize()'s output, which is format-independent
// by construction (CSC and DCSC forms of one logical matrix serialize to
// identical bytes), so the content hash never depends on the in-memory
// representation. Format is carried alongside the hash — not mixed into it —
// because the format knob changes kernels and footprints but not values.
type Fingerprint struct {
	Rows int32  `json:"rows"`
	Cols int32  `json:"cols"`
	NNZ  int64  `json:"nnz"`
	Fmt  string `json:"format"`
	Hash string `json:"hash"`
}

// FingerprintOf computes the fingerprint of a matrix. The content hash
// streams the canonical wire encoding from the encoder into sha256 through
// one buffer of at most wireChunk bytes, so it is O(nnz) work without a
// second copy of the matrix; callers that hold a matrix resident should
// compute it once and keep it.
func FingerprintOf(m Matrix) Fingerprint {
	h := sha256.New()
	_, _ = encodeTo(matrixHead(m), m, h) // a hash.Hash never fails a write
	r, c := m.Dims()
	return Fingerprint{
		Rows: r,
		Cols: c,
		NNZ:  m.NNZ(),
		Fmt:  m.Format().String(),
		Hash: hex.EncodeToString(h.Sum(nil)),
	}
}

// WireHash is the Hash of the fingerprint of the matrix whose Serialize
// output is wire, for a caller that holds those bytes already (the service
// client names an upload by it and then sends the same bytes).
func WireHash(wire []byte) string {
	sum := sha256.Sum256(wire)
	return hex.EncodeToString(sum[:])
}

// Key renders the fingerprint as a stable, human-readable string suitable
// for composing cache keys.
func (f Fingerprint) Key() string {
	return fmt.Sprintf("%dx%d:nnz=%d:fmt=%s:%s", f.Rows, f.Cols, f.NNZ, f.Fmt, f.Hash)
}

// ContentEqual reports whether two fingerprints describe the same logical
// matrix values, ignoring the in-memory format.
func (f Fingerprint) ContentEqual(o Fingerprint) bool {
	return f.Rows == o.Rows && f.Cols == o.Cols && f.NNZ == o.NNZ && f.Hash == o.Hash
}
