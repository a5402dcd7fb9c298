package localmm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/semiring"
	"repro/internal/spmat"
)

// poisonedMetadata reports whether every column pointer and stored column of
// m, a lent output or a view of one, is the poison −1.
func poisonedMetadata(m spmat.Matrix) bool {
	v := viewOf(m)
	return !slices.ContainsFunc(v.ptr, func(x int64) bool { return x != -1 }) &&
		!slices.ContainsFunc(v.jc, func(j int32) bool { return j != -1 })
}

// poisonedEntries reports whether every row and value of m is the poison: −1
// and NaN.
func poisonedEntries(m spmat.Matrix) bool {
	v := viewOf(m)
	return !slices.ContainsFunc(v.rows, func(r int32) bool { return r != -1 }) &&
		!slices.ContainsFunc(v.vals, func(x float64) bool { return !math.IsNaN(x) })
}

// releaseLent releases m with the arrays it gives back poisoned and reports
// whether it was lent: whether its column pointers now read −1, which no
// owned matrix's do.
func releaseLent(m spmat.Matrix) bool {
	defer spmat.PoisonReleased.Store(spmat.PoisonReleased.Swap(true))
	spmat.Release(m)
	return poisonedMetadata(m)
}

// readFails reports whether reading m's first stored column panics, as it
// must once m's metadata is poisoned.
func readFails(m spmat.Matrix) (failed bool) {
	defer func() { failed = recover() != nil }()
	v := viewOf(m)
	v.col(0)
	return false
}

// TestMulLentLendsOnlyTheSingleRangeChunk pins what a lending Plan.Mul
// shares and what it does not. A product one range made is lent: its entry
// arrays are the worker's chunk and its column metadata drawn for it, and so
// is the metadata of the column-range views cut from it (spmat.MatColRanges).
// Until it is released product and views equal the owned product's entry for
// entry; once it is — the poison shows whose memory it is — the entries are
// all −1 and NaN, every pointer and stored column of product and views −1,
// and reading a view's column fails. Releasing the product twice is releasing
// it once, and releasing a view does nothing: two lent products out at once
// never share an array, and a stale release of a released product while its
// arrays are out again leaves the new product alone. A product two ranges
// made is placed into arrays of its own, is not lent, and reads the same
// after Release. An owned product is never anybody's but the caller's: later
// calls, which refill the released chunks, leave it alone.
func TestMulLentLendsOnlyTheSingleRangeChunk(t *testing.T) {
	defer spmat.PoisonReleased.Store(spmat.PoisonReleased.Swap(true))
	sr := semiring.PlusTimes()
	light := scrambleColumns(uniformMat(t, 200, 200, 6, 401), 1)
	heavy := scrambleColumns(uniformMat(t, 256, 256, 16, 402), 2)
	for _, k := range engineKernels {
		for _, dcsc := range []bool{false, true} {
			label := fmt.Sprintf("%v/dcsc=%v", k, dcsc)
			pl := PlanMul(light, asFormat(light, dcsc))
			owned := pl.Mul(k, sr, false, 4)
			lent := pl.Mul(k, sr, true, 4)
			sameEntries(t, label+": lent vs owned", lent, owned)
			bounds := []int32{0, 70, 70, 200}
			views := spmat.MatColRanges(lent, bounds)
			for x, view := range views {
				sameEntries(t, fmt.Sprintf("%s: view %d vs owned", label, x), view, spmat.MatColRanges(owned, bounds)[x])
			}
			spmat.Release(lent)
			spmat.Release(lent)     // releasing twice is releasing once
			spmat.Release(views[2]) // and releasing a view does nothing
			if !poisonedEntries(lent) {
				t.Errorf("%s: a single-range product was not lent: its arrays are not the released chunk", label)
			}
			if !poisonedMetadata(lent) || !poisonedMetadata(views[0]) || !poisonedMetadata(views[2]) {
				t.Errorf("%s: the lent product's column metadata, or its views', outlived its release", label)
			}
			if !readFails(views[2]) {
				t.Errorf("%s: a view of the lent product reads a column after its release", label)
			}
			sameEntries(t, label+": owned product after later calls", owned, ownedProduct(pl, k, sr))
			again := pl.Mul(k, sr, true, 4)
			other := pl.Mul(k, sr, true, 4)
			if &viewOf(again).rows[0] == &viewOf(other).rows[0] {
				t.Fatalf("%s: two lent products out at once share an array", label)
			}
			sameEntries(t, label+": a lent product in the released arrays", again, owned)
			spmat.Release(lent)
			sameEntries(t, label+": the next lent product after a stale Release", again, owned)
			sameEntries(t, label+": the lent product beside it", other, owned)
			spmat.Release(again)
			spmat.Release(other)

			pl = PlanMul(heavy, asFormat(heavy, dcsc))
			if clampThreads(2, pl.bv.n, pl.Flops) != 2 {
				t.Fatalf("multiply of %d flops is below the worker floor", pl.Flops)
			}
			placed := pl.Mul(k, sr, true, 2)
			if releaseLent(placed) {
				t.Errorf("%s: a two-range product was lent", label)
			}
			sameEntries(t, label+": two-range product after Release", placed, ownedProduct(pl, k, sr))
		}
	}
}

// TestMergeLentLendsOnlyTheSingleRangeChunk is the same pin for a lending
// merge (MulMerge with no plan), sorted or not, CSC or DCSC: a merge one
// range ran is the worker's chunk until Release and poisoned after it; a
// merge two ranges ran is owned; a one-operand merge is its operand, and the
// operand, owned, is untouched by the Release. The owned and lent merges
// share one pass, so each, sorted, is also held to the heap merge of the
// operands, which does not.
func TestMergeLentLendsOnlyTheSingleRangeChunk(t *testing.T) {
	defer spmat.PoisonReleased.Store(spmat.PoisonReleased.Swap(true))
	sr := semiring.PlusTimes()
	light := []*spmat.CSC{scrambleColumns(uniformMat(t, 200, 200, 6, 421), 1), scrambleColumns(uniformMat(t, 200, 200, 6, 422), 2)}
	heavy := []*spmat.CSC{uniformMat(t, 512, 512, 40, 423), uniformMat(t, 512, 512, 40, 424), uniformMat(t, 512, 512, 40, 425), uniformMat(t, 512, 512, 40, 426)}
	asMats := func(ms []*spmat.CSC, dcsc bool) []spmat.Matrix {
		out := make([]spmat.Matrix, len(ms))
		for i, m := range ms {
			out[i] = asFormat(m, dcsc)
		}
		return out
	}
	for _, sorted := range []bool{false, true} {
		for _, dcsc := range []bool{false, true} {
			label := fmt.Sprintf("sorted=%v/dcsc=%v", sorted, dcsc)
			mats := asMats(light, dcsc)
			owned := MergeMat(MergerHash, mats, sr, sorted, 4)
			lent, _ := MulMerge(KernelHashUnsorted, mats, nil, 0, 0, sr, sorted, true, 4)
			sameEntries(t, label+": lent vs owned", lent, owned)
			sameAsHeapMerge(t, label+": lent", lent, mats, sr)
			spmat.Release(lent)
			if !poisonedEntries(lent) {
				t.Errorf("%s: a single-range merge was not lent: its arrays are not the released chunk", label)
			}
			if !poisonedMetadata(lent) {
				t.Errorf("%s: the lent merge's column metadata outlived its release", label)
			}
			sameEntries(t, label+": owned merge after later calls", owned, MergeMat(MergerHash, mats, sr, sorted, 1))

			mats = asMats(heavy, dcsc)
			var entries int64
			for _, m := range mats {
				entries += m.NNZ()
			}
			if clampThreads(2, 512, entries) != 2 {
				t.Fatalf("merge of %d entries is below the worker floor", entries)
			}
			placed, _ := MulMerge(KernelHashUnsorted, mats, nil, 0, 0, sr, sorted, true, 2)
			sameAsHeapMerge(t, label+": two ranges", placed, mats, sr)
			if releaseLent(placed) {
				t.Errorf("%s: a two-range merge was lent", label)
			}
			sameEntries(t, label+": two-range merge after Release", placed, MergeMat(MergerHash, mats, sr, sorted, 1))
		}
	}
	one := []spmat.Matrix{uniformMat(t, 64, 64, 4, 427)}
	out, _ := MulMerge(KernelHashUnsorted, one, nil, 0, 0, sr, true, true, 1)
	if out != one[0] {
		t.Errorf("a one-operand merge lent a chunk instead of passing its operand through")
	}
	spmat.Release(out)
	sameEntries(t, "operand after Release", one[0], uniformMat(t, 64, 64, 4, 427))
}

// TestStampGenerationWrapsInAccumulator drives one worker's direct table
// across the generation wrap: three columns leave stamps 1, 2 and 3 behind,
// the counter is set to MaxInt32 − 2, and the next columns take MaxInt32 − 1,
// MaxInt32 and — the table cleared — 1, 2, 3 again. Through the multiply's
// and the merge's accumulation, drained unsorted, by the bitmap walk and by
// the sort, every column must come out as from scratch nobody has used: a
// stamp that survived the wrap would pass for a row already in the column.
func TestStampGenerationWrapsInAccumulator(t *testing.T) {
	sr := semiring.PlusTimes()
	a := scrambleColumns(uniformMat(t, 300, 12, 40, 411), 1)
	b := uniformMat(t, 12, 9, 5, 412)
	flops := ColFlops(a, b)
	av := viewOf(a)
	// column computes output column j as a multiply or as the merge of the A
	// columns the multiply scales, drained sorted or not, with A declared rows
	// tall: 300 rows walk the bitmap, the tallest direct table sorts.
	column := func(w *mmWorker, j int32, merge, sorted bool, rows int32) ([]int32, []float64) {
		bRows, bVals := b.Column(j)
		w.rows, w.vals = w.rows[:0], w.vals[:0]
		w.acc.sizeFor(flops[j], rows)
		if merge {
			parts := make([]colPart, len(bRows))
			for x, i := range bRows {
				parts[x].rows, parts[x].vals = a.Column(i)
			}
			hashAccumulateParts(&w.acc, parts, sr, true)
		} else {
			hashAccumulateColumn(&w.acc, &av, bRows, bVals, sr, true)
		}
		w.drain(sorted)
		return slices.Clone(w.rows), slices.Clone(w.vals)
	}
	for _, merge := range []bool{false, true} {
		for _, sorted := range []bool{false, true} {
			for _, rows := range []int32{a.Rows, directAccumRows} {
				var used mmWorker
				for j := int32(0); j < 3; j++ {
					column(&used, j, merge, sorted, rows)
				}
				if used.acc.gen != 3 {
					t.Fatalf("three columns took generation %d", used.acc.gen)
				}
				used.acc.stamped.gen = math.MaxInt32 - 2
				for j := int32(3); j < b.Cols; j++ {
					gotR, gotV := column(&used, j, merge, sorted, rows)
					wantR, wantV := column(new(mmWorker), j, merge, sorted, rows)
					if !slices.Equal(gotR, wantR) || !slices.Equal(gotV, wantV) {
						t.Fatalf("merge=%v sorted=%v rows=%d: column %d at generation %d differs from a fresh worker's",
							merge, sorted, rows, j, used.acc.gen)
					}
				}
				if used.acc.gen != b.Cols-5 {
					t.Fatalf("merge=%v sorted=%v rows=%d: generation %d after the wrap, want %d", merge, sorted, rows, used.acc.gen, b.Cols-5)
				}
			}
		}
	}
}

// TestReleasedPlanIsPoisoned pins Plan.Release under poisoned returns: the
// plan's arrays go back to the free list with every slot past any column and
// every running sum and flop count −1, and the plan lets go of them (Flops
// stays); releasing twice is releasing once. The next plan gets the same
// arrays back, longer than it needs and full of poison, and must overwrite
// everything it reads: its slots are the JC positions a scan finds, its
// counts ColFlops's, and its products and symbolic count the naive ones,
// for both of B's formats.
func TestReleasedPlanIsPoisoned(t *testing.T) {
	defer spmat.PoisonReleased.Store(spmat.PoisonReleased.Swap(true))
	sr := semiring.PlusTimes()
	aCSC := hyperMat(t, 48, 1<<14, 1500, 421)
	a := aCSC.ToDCSC()
	pl := PlanMul(a, hyperMat(t, 1<<14, 900, 3000, 422).ToDCSC())
	flops, s := pl.Flops, pl.scratch
	pl.Release()
	if pl.scratch != nil || pl.slots != nil || pl.colFlops != nil || pl.Flops != flops {
		t.Fatalf("a released plan still holds its arrays (or lost its flop count)")
	}
	if slices.ContainsFunc(s.slots[:cap(s.slots)], func(k int32) bool { return k != math.MaxInt32 }) ||
		slices.ContainsFunc(s.sums[:cap(s.sums)], func(f int64) bool { return f != -1 }) ||
		slices.ContainsFunc(s.colFlops[:cap(s.colFlops)], func(f int64) bool { return f != -1 }) {
		t.Fatal("a released plan's arrays are not poisoned")
	}
	pl.Release() // releasing twice is releasing once

	bCSC := hyperMat(t, 1<<14, 300, 700, 423)
	wantFlops := ColFlops(aCSC, bCSC)
	naive := naiveMultiply(aCSC, bCSC, sr)
	for _, bD := range []bool{false, true} {
		bm := asFormat(bCSC, bD)
		want := wantFlops
		if bD {
			want = nil
			for _, j := range bm.(*spmat.DCSC).JC {
				want = append(want, wantFlops[j])
			}
		}
		fresh := PlanMul(a, bm)
		if fresh.scratch != s {
			t.Fatal("the next plan did not get the released arrays back")
		}
		q := int64(0)
		for j := int32(0); j < bCSC.Cols; j++ {
			rows, _ := bCSC.Column(j)
			for _, i := range rows {
				want := int32(-1)
				if at := slices.Index(a.JC, i); at >= 0 {
					want = int32(at)
				}
				if got := fresh.slots[q]; got != want {
					t.Fatalf("bD=%v: B entry %d (row %d) has A slot %d, want %d", bD, q, i, got, want)
				}
				q++
			}
		}
		if !slices.Equal(fresh.colFlops, want) {
			t.Fatalf("bD=%v: fresh plan counts %v flops per slot, want %v", bD, fresh.colFlops, want)
		}
		if fresh.Symbolic(1) != naive.NNZ() {
			t.Fatalf("bD=%v: fresh plan counts %d output entries, want %d", bD, fresh.Symbolic(1), naive.NNZ())
		}
		for _, k := range allKernels {
			if !spmat.Equal(fresh.mulTest(k, sr, 1).ToCSC(), naive) {
				t.Fatalf("bD=%v %v: fresh plan multiplies differently from the naive product", bD, k)
			}
		}
		fresh.Release()
	}
}
