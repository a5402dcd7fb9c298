// Package apps hosts the SpGEMM-driven applications the paper cites as the
// motivation for extreme-scale sparse multiply — Markov clustering (HipMCL,
// Sec. V-C), triangle counting, multi-source BFS, protein-overlap detection,
// Jaccard similarity, and hypergraph matching — each in its own subpackage.
//
// Every application reduces to repeated SpGEMM over some semiring, so the
// engine behind the product is swappable. The subpackages expose up to three
// variants per algorithm:
//
//   - ...Serial: the in-process hash kernel, the correctness baseline.
//   - ...Distributed: BatchedSUMMA3D on the simulated cluster, with
//     per-batch hooks so intermediates (wedge matrices, expanded frontiers)
//     never materialize — the paper's memory-constrained pattern.
//   - ...Via: any engine behind a MultiplyFunc — in particular a remote
//     spgemmd daemon through (*service.Client).MultiplyMatrices, which has
//     exactly this signature. Iterated apps are where the service's plan
//     cache pays off: every expansion after the first skips probe work.
//
// This file defines the shared MultiplyFunc contract; it lives here rather
// than in a subpackage so mcl, bfs, and tricount can share it without
// importing each other.
package apps

import (
	"repro/internal/localmm"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

// MultiplyFunc is the one capability an application needs from an SpGEMM
// engine: C = A·B over a named semiring (semiring.ByName spellings; ""
// means plus-times). (*service.Client).MultiplyMatrices satisfies it
// directly, making every ...Via application a service client.
type MultiplyFunc func(a, b *spmat.CSC, semiringName string) (*spmat.CSC, error)

// Serial returns a MultiplyFunc backed by the in-process sorted hash kernel
// — the reference engine the ...Via variants are tested against.
func Serial() MultiplyFunc {
	return func(a, b *spmat.CSC, name string) (*spmat.CSC, error) {
		sr, err := semiring.ByName(name)
		if err != nil {
			return nil, err
		}
		return localmm.Multiply(a, b, sr), nil
	}
}
