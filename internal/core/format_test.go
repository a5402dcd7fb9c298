package core

import (
	"math/rand"
	"testing"

	"repro/internal/distmat"
	"repro/internal/genmat"
	"repro/internal/grid"
	"repro/internal/localmm"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

var allFormats = []spmat.Format{spmat.FormatCSC, spmat.FormatDCSC, spmat.FormatAuto}

// TestFormatDifferential is the end-to-end storage-format proof: the same
// distributed multiplication under -format csc, dcsc, and auto must produce
// bit-identical assembled outputs across kernels, mergers, grids, batch
// counts, and both schedules (staged and fully pipelined). The serial
// reference pins the values.
func TestFormatDifferential(t *testing.T) {
	square := randomMat(t, 60, 60, 700, 171)
	hyperA := genmat.Hypersparse(48, 1024, 2, 172)
	hyperB := spmat.Transpose(hyperA)

	type workload struct {
		name string
		a, b *spmat.CSC
	}
	workloads := []workload{
		{"square", square, square},
		{"kmers-AAt", hyperA, hyperB},
	}
	type cfg struct {
		p, l, batches int
		kernel        localmm.Kernel
		pipeline      bool
		threads       int
	}
	cfgs := []cfg{
		{p: 4, l: 1, batches: 1, kernel: localmm.KernelHashUnsorted},
		{p: 8, l: 2, batches: 3, kernel: localmm.KernelHashUnsorted},
		{p: 8, l: 2, batches: 2, kernel: localmm.KernelHashSorted},
		{p: 8, l: 2, batches: 3, kernel: localmm.KernelHashSorted},
		{p: 16, l: 4, batches: 2, kernel: localmm.KernelHashSorted, pipeline: true},
		{p: 16, l: 4, batches: 3, kernel: localmm.KernelHashUnsorted, pipeline: true, threads: 4},
	}
	for _, wl := range workloads {
		want := localmm.Multiply(wl.a, wl.b, semiring.PlusTimes())
		for ci, c := range cfgs {
			var ref *spmat.CSC
			for _, f := range allFormats {
				got, _, _ := runDistributed(t, c.p, c.l, wl.a, wl.b, Options{
					ForceBatches: c.batches,
					Kernel:       c.kernel,
					Pipeline:     c.pipeline,
					Threads:      c.threads,
					Format:       f,
				}, nil)
				if !spmat.Equal(got, want) {
					t.Errorf("%s cfg %d format %v: distributed result differs from serial reference", wl.name, ci, f)
				}
				if ref == nil {
					ref = got
				} else if !spmat.Equal(ref, got) {
					t.Errorf("%s cfg %d: format %v output differs from the other formats", wl.name, ci, f)
				}
			}
		}
	}
}

// TestFormatCommVolumeInvariant: the bytes every step moves must not depend
// on the format knob — the wire encoding is chosen by occupancy alone.
func TestFormatCommVolumeInvariant(t *testing.T) {
	a := genmat.Hypersparse(32, 512, 2, 55)
	b := spmat.Transpose(a)
	type vol map[string]int64
	volumes := make(map[spmat.Format]vol)
	for _, f := range allFormats {
		_, _, summary := runDistributed(t, 8, 2, a, b, Options{ForceBatches: 2, RunSymbolic: true, Format: f}, nil)
		v := make(vol)
		for _, step := range Steps {
			v[step] = summary.Step(step).Bytes
		}
		volumes[f] = v
	}
	for _, step := range Steps {
		if volumes[spmat.FormatCSC][step] != volumes[spmat.FormatDCSC][step] ||
			volumes[spmat.FormatCSC][step] != volumes[spmat.FormatAuto][step] {
			t.Errorf("%s: bytes differ across formats: csc=%d dcsc=%d auto=%d", step,
				volumes[spmat.FormatCSC][step], volumes[spmat.FormatDCSC][step], volumes[spmat.FormatAuto][step])
		}
	}
}

// TestHypersparseFewerBatches: with DCSC footprints accounted, the symbolic
// step must choose strictly fewer batches for a hypersparse input under the
// same MemBytes (the issue's acceptance criterion). The budget sits in the
// window where the flat r·nnz model still fits the inputs but leaves little
// headroom.
func TestHypersparseFewerBatches(t *testing.T) {
	const p, l = 16, 4
	a := genmat.Hypersparse(64, 2048, 2, 91)
	b := spmat.Transpose(a)

	// Locate the CSC infeasibility floor by probing the per-rank maxima the
	// same way Symbolic3D does, then place budgets slightly above it.
	maxIn := maxInputFootprint(t, p, l, a, b, spmat.FormatCSC)
	base := int64(p) * maxIn

	sawStrictlyFewer := false
	for _, mult := range []float64{1.2, 1.5, 2.0} {
		budget := int64(mult * float64(base))
		bs := make(map[spmat.Format]int)
		for _, f := range []spmat.Format{spmat.FormatCSC, spmat.FormatDCSC} {
			nb, err := SymbolicBatches(a, b, RunConfig{
				P: p, L: l, Cost: testCM,
				Opts: Options{MemBytes: budget, RunSymbolic: true, Format: f},
			})
			if err != nil {
				// Infeasible under this format's accounting: treat as +inf.
				nb = 1 << 20
			}
			bs[f] = nb
		}
		if bs[spmat.FormatDCSC] > bs[spmat.FormatCSC] {
			t.Errorf("budget %.1fx: DCSC footprints need MORE batches (%d) than CSC (%d)",
				mult, bs[spmat.FormatDCSC], bs[spmat.FormatCSC])
		}
		if bs[spmat.FormatDCSC] < bs[spmat.FormatCSC] {
			sawStrictlyFewer = true
		}
	}
	if !sawStrictlyFewer {
		t.Error("no budget in the window showed strictly fewer batches under DCSC footprints")
	}

	// And the same multiplications still agree on output values.
	want := localmm.Multiply(a, b, semiring.PlusTimes())
	for _, f := range []spmat.Format{spmat.FormatCSC, spmat.FormatDCSC} {
		got, _, _ := runDistributed(t, p, l, a, b, Options{
			MemBytes: 3 * base, RunSymbolic: true, Format: f,
		}, nil)
		if !spmat.Equal(got, want) {
			t.Errorf("format %v under memory constraint: wrong product", f)
		}
	}
}

// maxInputFootprint returns the max-over-ranks modeled input footprint
// (Ã + B̃) under the given format, mirroring Symbolic3D's reduction.
func maxInputFootprint(t *testing.T, p, l int, a, b *spmat.CSC, f spmat.Format) int64 {
	t.Helper()
	q, err := grid.SideFor(p, l)
	if err != nil {
		t.Fatal(err)
	}
	var maxIn int64
	da := distmat.NewADist(a.Rows, a.Cols, q, l)
	db := distmat.NewBDist(b.Rows, b.Cols, q, l)
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			for k := 0; k < l; k++ {
				la := spmat.WithFormat(da.Local(a, i, j, k), f)
				lb := spmat.WithFormat(db.Local(b, i, j, k), f)
				in := spmat.BlockMemBytes(la, spmat.BytesPerNonzero) + spmat.BlockMemBytes(lb, spmat.BytesPerNonzero)
				if in > maxIn {
					maxIn = in
				}
			}
		}
	}
	return maxIn
}

// TestWorkUnitsDropWithDCSC: the modeled work units of the compute steps
// must strictly shrink when hypersparse blocks are stored doubly-compressed
// — the O(cols)-per-block column-scan term leaving the modeled critical
// path — while staying identical for CSC vs the pre-knob accounting.
func TestWorkUnitsDropWithDCSC(t *testing.T) {
	a := genmat.Hypersparse(48, 2048, 2, 77)
	b := spmat.Transpose(a)
	work := func(f spmat.Format) int64 {
		_, _, summary := runDistributed(t, 16, 4, a, b, Options{ForceBatches: 2, RunSymbolic: true, Format: f}, nil)
		var w int64
		for _, step := range Steps {
			w += summary.Step(step).WorkUnits
		}
		return w
	}
	wc, wd := work(spmat.FormatCSC), work(spmat.FormatDCSC)
	if wd >= wc {
		t.Errorf("DCSC work units %d not below CSC %d on a hypersparse workload", wd, wc)
	}
}

// TestDCSCPipelinedSUMMARace extends the pipelined race workout to the
// doubly-compressed path: forced-DCSC blocks under the fully-overlapped
// schedule with intra-rank worker threads and the parallel symbolic step.
func TestDCSCPipelinedSUMMARace(t *testing.T) {
	if testing.Short() {
		t.Skip("race workout skipped in -short mode")
	}
	a := genmat.Hypersparse(48, 768, 3, 83)
	b := spmat.Transpose(a)
	want := localmm.Multiply(a, b, semiring.PlusTimes())
	for _, f := range []spmat.Format{spmat.FormatDCSC, spmat.FormatAuto} {
		for _, cfg := range []struct{ p, l, b, threads int }{
			{8, 2, 2, 4},
			{16, 4, 3, 4},
		} {
			got, _, _ := runDistributed(t, cfg.p, cfg.l, a, b, Options{
				ForceBatches: cfg.b, RunSymbolic: true,
				Threads: cfg.threads, Pipeline: true,
				Format: f,
			}, nil)
			if !spmat.Equal(got, want) {
				t.Errorf("format %v p=%d l=%d b=%d pipelined: result differs from serial",
					f, cfg.p, cfg.l, cfg.b)
			}
		}
	}
}

// randomHyperLike exercises quick shapes around the auto threshold so the
// mixed-format Merge-Fiber path (some received pieces compressed, some not)
// is hit: block occupancy hovers near 50%.
func TestAutoMixedFormatsNearThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for it := 0; it < 4; it++ {
		nnz := 400 + rng.Intn(500)
		a := randomMat(t, 48, 96, nnz, int64(300+it))
		b := randomMat(t, 96, 80, nnz, int64(400+it))
		want := localmm.Multiply(a, b, semiring.PlusTimes())
		got, _, _ := runDistributed(t, 8, 2, a, b, Options{ForceBatches: 2, Format: spmat.FormatAuto}, nil)
		if !spmat.Equal(got, want) {
			t.Errorf("it %d: auto format near threshold: wrong product", it)
		}
	}
}
