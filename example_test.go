package spgemm_test

import (
	"fmt"

	spgemm "repro"
)

// ExampleCluster_Multiply multiplies a small matrix on a simulated 4-rank
// cluster and verifies the result against the serial kernel.
func ExampleCluster_Multiply() {
	a, _ := spgemm.FromTriples(4, 4, []spgemm.Triple{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 2, Val: 1},
		{Row: 2, Col: 3, Val: 1}, {Row: 3, Col: 0, Val: 1},
	})
	cluster := spgemm.NewCluster(4, 1)
	c, stats, err := cluster.Multiply(a, a, spgemm.Options{Batches: 2})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("nnz(C):", c.NNZ())
	fmt.Println("batches:", stats.Batches)
	fmt.Println("matches serial:", spgemm.Equal(c, spgemm.MultiplySerial(a, a, nil)))
	// Output:
	// nnz(C): 4
	// batches: 2
	// matches serial: true
}

// ExampleCluster_MultiplyBatched shows the memory-constrained consumption
// pattern: every batch is inspected (and could be pruned) by the hook.
func ExampleCluster_MultiplyBatched() {
	a := spgemm.Identity(8)
	cluster := spgemm.NewCluster(4, 1)
	// The hooks run concurrently, one goroutine per rank, so each rank
	// records the batches it sees in its own slot.
	perRank := make([][]int, 4)
	_, _, err := cluster.MultiplyBatched(a, a, spgemm.Options{Batches: 2},
		func(rank, batch int, cols []int32, piece *spgemm.Matrix) *spgemm.Matrix {
			perRank[rank] = append(perRank[rank], batch)
			return nil // keep the batch unchanged
		})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	batches := make(map[int]bool)
	for _, seen := range perRank {
		for _, b := range seen {
			batches[b] = true
		}
	}
	fmt.Println("batches observed:", len(batches))
	// Output:
	// batches observed: 2
}

// ExampleMultiplySerial multiplies over the Boolean semiring to test
// two-hop reachability.
func ExampleMultiplySerial() {
	// Path graph 0 → 1 → 2.
	a, _ := spgemm.FromTriples(3, 3, []spgemm.Triple{
		{Row: 1, Col: 0, Val: 1}, {Row: 2, Col: 1, Val: 1},
	})
	reach2 := spgemm.MultiplySerial(a, a, spgemm.BoolOrAnd())
	fmt.Println("0 reaches 2 in two hops:", reach2.At(2, 0) == 1)
	// Output:
	// 0 reaches 2 in two hops: true
}

// ExampleTriangleCount counts the triangles of the complete graph K4.
func ExampleTriangleCount() {
	var ts []spgemm.Triple
	for i := int32(0); i < 4; i++ {
		for j := int32(0); j < 4; j++ {
			if i != j {
				ts = append(ts, spgemm.Triple{Row: i, Col: j, Val: 1})
			}
		}
	}
	adj, _ := spgemm.FromTriples(4, 4, ts)
	n, _ := spgemm.TriangleCount(adj, nil)
	fmt.Println("triangles in K4:", n)
	// Output:
	// triangles in K4: 4
}

// ExampleOverlapPairs finds the one read pair that shares two k-mers.
func ExampleOverlapPairs() {
	a, _ := spgemm.FromTriples(3, 6, []spgemm.Triple{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1},
		{Row: 2, Col: 5, Val: 1},
	})
	pairs, _ := spgemm.OverlapPairs(a, 2, nil)
	for _, p := range pairs {
		fmt.Printf("reads %d and %d share %d k-mers\n", p.R1, p.R2, p.Shared)
	}
	// Output:
	// reads 0 and 1 share 2 k-mers
}

// ExampleFlops previews the cost of a multiplication before running it.
func ExampleFlops() {
	a := spgemm.Identity(100)
	fmt.Println("flops:", spgemm.Flops(a, a))
	fmt.Println("nnz estimate:", spgemm.NNZEstimate(a, a))
	// Output:
	// flops: 100
	// nnz estimate: 100
}
