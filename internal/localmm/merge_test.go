package localmm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// ParallelMerge is mergeTest over CSC operands: the selected merge with
// threads worker goroutines, CSC in and CSC out.
func ParallelMerge(mg testMerger, mats []*spmat.CSC, sr *semiring.Semiring, sortOutput bool, threads int) *spmat.CSC {
	ms := make([]spmat.Matrix, len(mats))
	for i, m := range mats {
		ms[i] = m
	}
	return mergeTest(mg, ms, sr, sortOutput, threads).(*spmat.CSC)
}

// sumAll is the reference entry-wise sum of a list of matrices.
func sumAll(mats []*spmat.CSC) *spmat.CSC {
	out := mats[0]
	for _, m := range mats[1:] {
		out = spmat.Add(out, m, nil)
	}
	return out
}

func TestMergersMatchReference(t *testing.T) {
	sr := semiring.PlusTimes()
	mats := []*spmat.CSC{
		randomMat(t, 25, 20, 80, 11),
		randomMat(t, 25, 20, 90, 12),
		randomMat(t, 25, 20, 70, 13),
	}
	want := sumAll(mats)
	if got := ParallelMerge(mergerHash, mats, sr, true, 1); !spmat.Equal(got, want) {
		t.Error("hash merge wrong")
	}
	if got := ParallelMerge(mergerHeap, mats, sr, true, 1); !spmat.Equal(got, want) {
		t.Error("heap merge wrong")
	}
}

func TestHashMergeUnsortedFlag(t *testing.T) {
	sr := semiring.PlusTimes()
	mats := []*spmat.CSC{randomMat(t, 10, 10, 30, 14), randomMat(t, 10, 10, 30, 15)}
	if got := ParallelMerge(mergerHash, mats, sr, false, 1); got.SortedCols {
		t.Error("unsorted hash merge should report unsorted")
	}
	got := ParallelMerge(mergerHash, mats, sr, true, 1)
	if !got.SortedCols {
		t.Error("sorted hash merge should report sorted")
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMergeUnsortedInputs(t *testing.T) {
	sr := semiring.PlusTimes()
	a := randomMat(t, 30, 30, 150, 16)
	b := randomMat(t, 30, 30, 150, 17)
	// Produce genuinely unsorted operands through the unsorted-hash kernel.
	ua := ParallelSpGEMM(KernelHashUnsorted, a, b, sr, 1)
	ub := ParallelSpGEMM(KernelHashUnsorted, b, a, sr, 1)
	want := sumAll([]*spmat.CSC{ua, ub})
	if got := ParallelMerge(mergerHash, []*spmat.CSC{ua, ub}, sr, true, 1); !spmat.Equal(got, want) {
		t.Error("hash merge of unsorted inputs wrong")
	}
	if got := ParallelMerge(mergerHeap, []*spmat.CSC{ua, ub}, sr, true, 1); !spmat.Equal(got, want) {
		t.Error("heap merge of unsorted inputs wrong")
	}
}

func TestMergeSingleMatrix(t *testing.T) {
	sr := semiring.PlusTimes()
	m := ParallelSpGEMM(KernelHashUnsorted, randomMat(t, 15, 15, 60, 18), randomMat(t, 15, 15, 60, 19), sr, 1)
	got := ParallelMerge(mergerHash, []*spmat.CSC{m}, sr, true, 1)
	if !spmat.Equal(got, m) {
		t.Error("merge of one matrix should be identity")
	}
	if !got.SortedCols {
		t.Error("requested sorted output")
	}
}

func TestMergeEmptyMatrices(t *testing.T) {
	sr := semiring.PlusTimes()
	mats := []*spmat.CSC{spmat.New(5, 5), spmat.New(5, 5)}
	for _, mg := range allMergers {
		got := ParallelMerge(mg, mats, sr, true, 1)
		if got.NNZ() != 0 {
			t.Errorf("%v: merge of empties has %d nnz", mg, got.NNZ())
		}
	}
}

func TestMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	ParallelMerge(mergerHash, []*spmat.CSC{spmat.New(3, 3), spmat.New(3, 4)}, semiring.PlusTimes(), false, 1)
}

func TestMergeDeduplicates(t *testing.T) {
	// Matrices with internal duplicate coordinates (as stage outputs can
	// have when concatenated) must still merge correctly.
	dup := &spmat.CSC{
		Rows: 3, Cols: 1,
		ColPtr:     []int64{0, 3},
		RowIdx:     []int32{1, 1, 0},
		Val:        []float64{2, 3, 1},
		SortedCols: false,
	}
	other, _ := spmat.FromTriples(3, 1, []spmat.Triple{{Row: 1, Col: 0, Val: 4}}, nil)
	sr := semiring.PlusTimes()
	for _, mg := range allMergers {
		got := ParallelMerge(mg, []*spmat.CSC{dup, other}, sr, true, 1)
		if got.At(1, 0) != 9 || got.At(0, 0) != 1 {
			t.Errorf("%v: duplicates mishandled: (1,0)=%v (0,0)=%v", mg, got.At(1, 0), got.At(0, 0))
		}
		if got.NNZ() != 2 {
			t.Errorf("%v: nnz=%d, want 2", mg, got.NNZ())
		}
	}
}

func TestMergersAgreeProperty(t *testing.T) {
	sr := semiring.PlusTimes()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int32(rng.Intn(20) + 1)
		cols := int32(rng.Intn(20) + 1)
		k := rng.Intn(4) + 1
		mats := make([]*spmat.CSC, k)
		for i := range mats {
			mats[i] = randomMat(t, rows, cols, rng.Intn(60), seed+int64(i)+1)
		}
		return spmat.Equal(ParallelMerge(mergerHash, mats, sr, true, 1), ParallelMerge(mergerHeap, mats, sr, true, 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParallelMergeMatchesSerial(t *testing.T) {
	sr := semiring.PlusTimes()
	mats := []*spmat.CSC{
		randomMat(t, 40, 35, 200, 20),
		randomMat(t, 40, 35, 200, 21),
		randomMat(t, 40, 35, 200, 22),
	}
	want := ParallelMerge(mergerHash, mats, sr, true, 1)
	for _, threads := range []int{2, 5, 64} {
		got := ParallelMerge(mergerHash, mats, sr, true, threads)
		if !spmat.Equal(got, want) {
			t.Errorf("threads=%d: parallel merge differs", threads)
		}
	}
}

func TestMergeMinPlus(t *testing.T) {
	sr := semiring.MinPlus()
	a, _ := spmat.FromTriples(2, 1, []spmat.Triple{{Row: 0, Col: 0, Val: 5}}, nil)
	b, _ := spmat.FromTriples(2, 1, []spmat.Triple{{Row: 0, Col: 0, Val: 3}, {Row: 1, Col: 0, Val: 7}}, nil)
	for _, mg := range allMergers {
		got := ParallelMerge(mg, []*spmat.CSC{a, b}, sr, true, 1)
		if got.At(0, 0) != 3 || got.At(1, 0) != 7 {
			t.Errorf("%v: min-plus merge wrong: %v %v", mg, got.At(0, 0), got.At(1, 0))
		}
	}
}

// TestMergeOneOperandIsTheOperand: under the hash merge the sum of one
// matrix is that matrix, and MergeMat hands it back — the same object, no
// allocation — whenever no sort is asked for or none is needed. Only a sorted
// result asked of an unsorted operand is made, on a copy: the operand may be
// a block other ranks hold.
func TestMergeOneOperandIsTheOperand(t *testing.T) {
	sr := semiring.PlusTimes()
	a, b := randomMat(t, 30, 30, 150, 21), randomMat(t, 30, 30, 150, 22)
	unsorted := ParallelSpGEMM(KernelHashUnsorted, a, b, sr, 1)
	if unsorted.SortedCols {
		t.Fatal("the unsorted-hash product is marked sorted; the test needs an unsorted operand")
	}
	sorted := unsorted.CloneMat()
	sorted.SortColumns()
	for _, c := range []struct {
		name       string
		operand    spmat.Matrix
		sortOutput bool
	}{
		{"unsorted CSC, no sort asked", unsorted, false},
		{"unsorted DCSC, no sort asked", unsorted.ToDCSC(), false},
		{"sorted CSC, no sort asked", sorted, false},
		{"sorted CSC, sort asked", sorted, true},
		{"sorted DCSC, sort asked", sorted.ToDCSC(), true},
	} {
		mats := []spmat.Matrix{c.operand}
		if got := MergeMat(MergerHash, mats, sr, c.sortOutput, 4); got != c.operand {
			t.Errorf("%s: got a different matrix back", c.name)
		}
		if n := testing.AllocsPerRun(10, func() { MergeMat(MergerHash, mats, sr, c.sortOutput, 4) }); n != 0 {
			t.Errorf("%s: %v allocations to return the operand", c.name, n)
		}
	}

	before := unsorted.CloneMat()
	got := MergeMat(MergerHash, []spmat.Matrix{unsorted}, sr, true, 1)
	if got == spmat.Matrix(unsorted) || !got.Sorted() {
		t.Error("a sorted result asked of an unsorted operand must be a sorted copy")
	}
	sameEntries(t, "the operand after a sorted one-operand merge", unsorted, before)
	if !spmat.Equal(got.ToCSC(), sorted.ToCSC()) {
		t.Error("the sorted copy does not hold the operand's entries")
	}
}

// TestSortedMergeColumnsStrictlyAscending: a sorted hash merge — what
// Merge-Layer runs on a one-layer grid, where it is the last merge to hold
// the entries in a table — leaves every column strictly ascending: in row
// order and with every duplicate summed, whether the order comes from the
// direct table's bitmap walk or from sorting the drained column (one row past
// the direct bound), for either format and worker count.
func TestSortedMergeColumnsStrictlyAscending(t *testing.T) {
	sr := semiring.PlusTimes()
	parts := make([]*spmat.CSC, 4)
	for i := range parts {
		parts[i] = scrambleColumns(uniformMat(t, 256, 512, 64, 31+int64(i)), int64(7+i))
	}
	for _, rows := range []int32{256, directAccumRows + 1} {
		for _, dcsc := range []bool{false, true} {
			for _, threads := range []int{1, 2} {
				mats := make([]spmat.Matrix, len(parts))
				for i, m := range parts {
					mats[i] = asFormat(withRows(m, rows), dcsc)
				}
				got := MergeMat(MergerHash, mats, sr, true, threads).ToCSC()
				if !got.SortedCols {
					t.Errorf("rows=%d dcsc=%v t=%d: result not marked sorted", rows, dcsc, threads)
				}
				for j := int32(0); j < got.Cols; j++ {
					rws, _ := got.Column(j)
					for q := 1; q < len(rws); q++ {
						if rws[q-1] >= rws[q] {
							t.Fatalf("rows=%d dcsc=%v t=%d: column %d holds row %d before row %d", rows, dcsc, threads, j, rws[q-1], rws[q])
						}
					}
				}
				if !spmat.Equal(got, withRows(sumAll(parts), rows)) {
					t.Errorf("rows=%d dcsc=%v t=%d: sorted merge differs from the entry-wise sum", rows, dcsc, threads)
				}
			}
		}
	}
}
