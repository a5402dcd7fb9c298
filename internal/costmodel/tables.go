package costmodel

// This file encodes the closed-form communication rows of the paper's Table
// II for BATCHEDSUMMA3D on a √(p/l) × √(p/l) × l grid with b batches. The
// experiment harness compares these predictions against metered volumes,
// which is the repository's executable check of the paper's analysis.

import "math"

// TableIIInput collects the problem parameters the formulas need.
type TableIIInput struct {
	P     int     // total processes
	L     int     // layers
	B     int     // batches
	NnzA  int64   // nonzeros of A
	NnzB  int64   // nonzeros of B
	Flops int64   // multiplications to form A·B
	Alpha float64 // latency (seconds)
	Beta  float64 // inverse bandwidth (seconds per byte)
	// BytesPerNnz converts nonzero counts to wire bytes.
	BytesPerNnz float64
}

// lgf is log2 clamped at zero (lg of ≤1 is 0 in the latency formulas).
func lgf(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log2(x)
}

// TableIIRow is one communication step's predicted totals.
type TableIIRow struct {
	Step string
	// Times is how many times the collective runs over the whole SpGEMM.
	Times float64
	// LatencySec and BandwidthSec are the paper's "Total latency" and
	// "Total bandwidth" rows in seconds.
	LatencySec   float64
	BandwidthSec float64
}

// TableII returns the three communication rows of Table II.
//
//	A-Bcast:  performed b·√(p/l) times; total latency α·b·√(p/l)·lg(p/l);
//	          total bandwidth β·b·nnz(A)/√(pl).
//	B-Bcast:  same count; total bandwidth β·nnz(B)/√(pl) (no b: each batch
//	          moves 1/b of B).
//	AllToAll-Fiber: performed b times among l ranks; latency α·b·l;
//	          bandwidth β·flops/p (loose upper bound, see Sec. IV-C).
func TableII(in TableIIInput) []TableIIRow {
	pl := float64(in.P) / float64(in.L)
	sqrtPL := math.Sqrt(pl)
	sqrtPtimesL := math.Sqrt(float64(in.P) * float64(in.L))
	b := float64(in.B)
	rows := []TableIIRow{
		{
			Step:         "A-Broadcast",
			Times:        b * sqrtPL,
			LatencySec:   in.Alpha * b * sqrtPL * lgf(pl),
			BandwidthSec: in.Beta * in.BytesPerNnz * b * float64(in.NnzA) / sqrtPtimesL,
		},
		{
			Step:         "B-Broadcast",
			Times:        b * sqrtPL,
			LatencySec:   in.Alpha * b * sqrtPL * lgf(pl),
			BandwidthSec: in.Beta * in.BytesPerNnz * float64(in.NnzB) / sqrtPtimesL,
		},
		{
			Step:         "AllToAll-Fiber",
			Times:        b,
			LatencySec:   in.Alpha * b * float64(in.L),
			BandwidthSec: in.Beta * in.BytesPerNnz * float64(in.Flops) / float64(in.P),
		},
	}
	return rows
}
