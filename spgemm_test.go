package spgemm_test

import (
	"bytes"
	"os"
	"slices"
	"testing"

	spgemm "repro"
	"repro/internal/spmat"
)

// TestMain runs this package's tests and examples with returned chunks
// poisoned (spmat.PoisonReleased): once a lent kernel output goes
// back — a batch a hook was handed on loan, or the pieces Cluster.Multiply
// assembles once it has read them — its entries are every row −1 and every
// value NaN, so a product read after its chunks went back fails its
// comparison with the serial reference. BenchmarkEngineShapes turns the
// poison off while it runs: it times the engine, not the overwrite.
func TestMain(m *testing.M) {
	spmat.PoisonReleased.Store(true)
	os.Exit(m.Run())
}

func TestFacadeMultiplyMatchesSerial(t *testing.T) {
	a := spgemm.RandomProteinNetwork(7, 6, 1)
	want := spgemm.MultiplySerial(a, a, nil)
	cluster := spgemm.NewCluster(8, 2)
	got, stats, err := cluster.Multiply(a, a, spgemm.Options{Batches: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.EqualApprox(got, want, 1e-9) {
		t.Error("cluster multiply differs from serial")
	}
	if stats.Batches != 2 {
		t.Errorf("batches=%d", stats.Batches)
	}
	if stats.Flops != spgemm.Flops(a, a) {
		t.Errorf("flops=%d, want %d", stats.Flops, spgemm.Flops(a, a))
	}
	if stats.TotalSeconds <= 0 {
		t.Error("no time metered")
	}
	for _, step := range spgemm.StepNames() {
		if _, ok := stats.Steps[step]; !ok {
			t.Errorf("missing step %s", step)
		}
	}
}

func TestFacadeMemoryConstrained(t *testing.T) {
	a := spgemm.RandomProteinNetwork(7, 8, 2)
	cluster := spgemm.NewCluster(4, 1)
	unlimited, su, err := cluster.Multiply(a, a, spgemm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A budget that admits inputs but squeezes intermediates.
	budget := int64(24) * (8*a.NNZ() + spgemm.Flops(a, a)/4)
	constrained, sc, err := cluster.Multiply(a, a, spgemm.Options{MemBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.EqualApprox(unlimited, constrained, 1e-9) {
		t.Error("memory-constrained result differs")
	}
	if sc.Batches <= su.Batches {
		t.Errorf("expected more batches under constraint: %d vs %d", sc.Batches, su.Batches)
	}
	if sc.PeakMemBytes >= su.PeakMemBytes {
		t.Errorf("batching did not lower peak memory: %d vs %d", sc.PeakMemBytes, su.PeakMemBytes)
	}
}

func TestFacadeBatchedHook(t *testing.T) {
	a := spgemm.RandomGraph(7, 8, true, 3)
	cluster := spgemm.NewCluster(4, 1)
	// The hooks run concurrently, one goroutine per rank, so each rank
	// records the batches it sees in its own slot.
	seen := make([][]int, 4)
	got, _, err := cluster.MultiplyBatched(a, a, spgemm.Options{Batches: 3},
		func(rank, batch int, cols []int32, piece *spgemm.Matrix) *spgemm.Matrix {
			if batch >= 3 || len(cols) != int(piece.Cols) {
				t.Errorf("hook got batch=%d cols=%d pieceCols=%d", batch, len(cols), piece.Cols)
			}
			seen[rank] = append(seen[rank], batch)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for rank, batches := range seen {
		if !slices.Equal(batches, []int{0, 1, 2}) {
			t.Errorf("rank %d's hook saw batches %v, want [0 1 2]", rank, batches)
		}
	}
	if !spgemm.Equal(got, spgemm.MultiplySerial(a, a, nil)) {
		t.Error("hooked multiply changed values")
	}
}

func TestFacadeSemirings(t *testing.T) {
	a := spgemm.RandomGraph(6, 6, false, 4)
	cluster := spgemm.NewCluster(4, 1)
	got, _, err := cluster.Multiply(a, a, spgemm.Options{Semiring: spgemm.BoolOrAnd()})
	if err != nil {
		t.Fatal(err)
	}
	want := spgemm.MultiplySerial(a, a, spgemm.BoolOrAnd())
	if !spgemm.Equal(got, want) {
		t.Error("boolean semiring result differs")
	}
}

func TestFacadeKernelSelection(t *testing.T) {
	a := spgemm.RandomProteinNetwork(6, 6, 5)
	cluster := spgemm.NewCluster(4, 1)
	want := spgemm.MultiplySerial(a, a, nil)
	for _, k := range []spgemm.Kernel{spgemm.KernelHashUnsorted, spgemm.KernelHashSorted} {
		got, _, err := cluster.Multiply(a, a, spgemm.Options{Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		if !spgemm.EqualApprox(got, want, 1e-9) {
			t.Errorf("kernel %v differs", k)
		}
	}
}

func TestFacadeMachines(t *testing.T) {
	a := spgemm.RandomProteinNetwork(6, 6, 6)
	knl := spgemm.NewCluster(4, 1)
	hsw := knl.OnMachine(spgemm.Haswell())
	_, sk, err := knl.Multiply(a, a, spgemm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, sh, err := hsw.Multiply(a, a, spgemm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Same bytes on the wire; different modeled comm seconds.
	var bk, bh int64
	var ck, ch float64
	for _, step := range spgemm.StepNames() {
		bk += sk.Steps[step].Bytes
		bh += sh.Steps[step].Bytes
		ck += sk.Steps[step].CommSeconds
		ch += sh.Steps[step].CommSeconds
	}
	if bk != bh {
		t.Errorf("byte counts differ across machines: %d vs %d", bk, bh)
	}
	if !(ch < ck) {
		t.Errorf("Haswell comm (%v) not faster than KNL (%v)", ch, ck)
	}
}

func TestFacadeMatrixHelpers(t *testing.T) {
	m, err := spgemm.FromTriples(3, 3, []spgemm.Triple{{Row: 0, Col: 1, Val: 2}})
	if err != nil {
		t.Fatal(err)
	}
	tr := spgemm.Transpose(m)
	if tr.At(1, 0) != 2 {
		t.Error("transpose wrong")
	}
	id := spgemm.Identity(3)
	if got := spgemm.MultiplySerial(m, id, nil); !spgemm.Equal(got, m) {
		t.Error("M·I ≠ M")
	}
	var buf bytes.Buffer
	if err := spgemm.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := spgemm.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.Equal(m, back) {
		t.Error("MatrixMarket round trip failed")
	}
	if spgemm.NNZEstimate(m, id) != m.NNZ() {
		t.Error("NNZEstimate wrong")
	}
}

func TestFacadeMarkovCluster(t *testing.T) {
	// Two cliques bridged weakly.
	var ts []spgemm.Triple
	for i := int32(0); i < 4; i++ {
		for j := int32(0); j < 4; j++ {
			if i != j {
				ts = append(ts, spgemm.Triple{Row: i, Col: j, Val: 1})
				ts = append(ts, spgemm.Triple{Row: 4 + i, Col: 4 + j, Val: 1})
			}
		}
	}
	ts = append(ts, spgemm.Triple{Row: 0, Col: 4, Val: 0.05}, spgemm.Triple{Row: 4, Col: 0, Val: 0.05})
	a, _ := spgemm.FromTriples(8, 8, ts)
	res, err := spgemm.MarkovCluster(a, spgemm.MCLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Errorf("clusters=%d, want 2", res.NumClusters)
	}
	// Distributed expansion agrees.
	resD, err := spgemm.MarkovCluster(a, spgemm.MCLConfig{Cluster: spgemm.NewCluster(4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if resD.NumClusters != 2 {
		t.Errorf("distributed clusters=%d, want 2", resD.NumClusters)
	}
}

func TestFacadeTriangleCount(t *testing.T) {
	// K5 has 10 triangles.
	var ts []spgemm.Triple
	for i := int32(0); i < 5; i++ {
		for j := int32(0); j < 5; j++ {
			if i != j {
				ts = append(ts, spgemm.Triple{Row: i, Col: j, Val: 1})
			}
		}
	}
	adj, _ := spgemm.FromTriples(5, 5, ts)
	n, err := spgemm.TriangleCount(adj, nil)
	if err != nil || n != 10 {
		t.Errorf("serial: %d triangles (err %v), want 10", n, err)
	}
	nd, err := spgemm.TriangleCount(adj, spgemm.NewCluster(4, 1))
	if err != nil || nd != 10 {
		t.Errorf("distributed: %d triangles (err %v), want 10", nd, err)
	}
}

func TestFacadeOverlapPairs(t *testing.T) {
	a := spgemm.RandomKmerMatrix(40, 500, 8, 0.5, 7)
	serial, err := spgemm.OverlapPairs(a, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := spgemm.OverlapPairs(a, 2, spgemm.NewCluster(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(dist) {
		t.Fatalf("serial %d pairs, distributed %d", len(serial), len(dist))
	}
	for i := range serial {
		if serial[i] != dist[i] {
			t.Fatalf("pair %d differs", i)
		}
	}
}

func TestClusterAccessors(t *testing.T) {
	c := spgemm.NewCluster(16, 4)
	if c.Procs() != 16 || c.Layers() != 4 {
		t.Error("accessors wrong")
	}
	if off := c.RowOffsetOf(64, 0); off != 0 {
		t.Errorf("rank 0 offset %d", off)
	}
	// Last rank of the first layer's last row block.
	if off := c.RowOffsetOf(64, 3); off != 32 {
		t.Errorf("rank 3 offset %d, want 32", off)
	}
}

func TestFacadeJaccardPairs(t *testing.T) {
	a := spgemm.RandomKmerMatrix(30, 200, 6, 0.5, 8)
	serial, err := spgemm.JaccardPairs(a, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := spgemm.JaccardPairs(a, 0.1, spgemm.NewCluster(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(dist) {
		t.Fatalf("serial %d pairs, distributed %d", len(serial), len(dist))
	}
	for i := range serial {
		if serial[i].R1 != dist[i].R1 || serial[i].R2 != dist[i].R2 {
			t.Fatalf("pair %d differs", i)
		}
	}
}

func TestFacadeHeavyConnectivityMatching(t *testing.T) {
	a := spgemm.RandomKmerMatrix(24, 48, 4, 0.4, 9)
	serial, err := spgemm.HeavyConnectivityMatching(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Validate(); err != nil {
		t.Fatal(err)
	}
	dist, err := spgemm.HeavyConnectivityMatching(a, spgemm.NewCluster(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Matched != dist.Matched || serial.Weight != dist.Weight {
		t.Errorf("serial %d/%v vs distributed %d/%v",
			serial.Matched, serial.Weight, dist.Matched, dist.Weight)
	}
}

func TestFacadeMultiSourceBFS(t *testing.T) {
	// Path graph 0-1-2-3.
	var ts []spgemm.Triple
	for i := int32(0); i < 3; i++ {
		ts = append(ts, spgemm.Triple{Row: i + 1, Col: i, Val: 1},
			spgemm.Triple{Row: i, Col: i + 1, Val: 1})
	}
	adj, _ := spgemm.FromTriples(4, 4, ts)
	serial, err := spgemm.MultiSourceBFS(adj, []int32{0, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serial.At(3, 0) != 3 || serial.At(0, 1) != 3 {
		t.Errorf("levels wrong: %d %d", serial.At(3, 0), serial.At(0, 1))
	}
	dist, err := spgemm.MultiSourceBFS(adj, []int32{0, 3}, spgemm.NewCluster(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Level {
		if serial.Level[i] != dist.Level[i] {
			t.Fatalf("level[%d] differs", i)
		}
	}
}

func TestFacadePipelined(t *testing.T) {
	a := spgemm.RandomProteinNetwork(7, 6, 2)
	cluster := spgemm.NewCluster(16, 4)
	staged, sStats, err := cluster.Multiply(a, a, spgemm.Options{Batches: 2, MeasureSymbolic: true})
	if err != nil {
		t.Fatal(err)
	}
	piped, pStats, err := cluster.Multiply(a, a, spgemm.Options{Batches: 2, MeasureSymbolic: true, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	// Pipelining reorders only broadcast posting, never the arithmetic, so
	// the outputs are bit-identical (Equal, not EqualApprox).
	if !spgemm.Equal(staged, piped) {
		t.Error("pipelined result differs from staged")
	}
	if sStats.HiddenCommSeconds != 0 {
		t.Errorf("staged run hid comm: %v", sStats.HiddenCommSeconds)
	}
	if pStats.HiddenCommSeconds <= 0 {
		t.Error("pipelined run hid no comm time")
	}
	var perStep float64
	for _, step := range spgemm.StepNames() {
		if pStats.Steps[step].Bytes != sStats.Steps[step].Bytes {
			t.Errorf("%s: bytes moved changed under pipelining", step)
		}
		if h := sStats.Steps[step].HiddenCommSeconds; h != 0 {
			t.Errorf("%s: staged run reports per-step hidden comm %v", step, h)
		}
		perStep += pStats.Steps[step].HiddenCommSeconds
	}
	// The per-step hidden breakdown must add up to the total (the symbolic
	// hidden share is folded into the Symbolic step).
	if diff := perStep - pStats.HiddenCommSeconds; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("per-step hidden comm sums to %v, total reports %v", perStep, pStats.HiddenCommSeconds)
	}
	// The fiber exchange overlaps the own-layer Merge-Layer share, so on a
	// multi-layer grid its hidden share must be nonzero too.
	if h := pStats.Steps["AllToAll-Fiber"].HiddenCommSeconds; h <= 0 {
		t.Errorf("pipelined run hid no AllToAll-Fiber time (hidden %v)", h)
	}
}

// TestFacadeAutoTune: Options.AutoTune must pick a configuration by itself
// (possibly changing the cluster's layer count), produce the exact same
// product values, report the executed knobs, and decide deterministically.
func TestFacadeAutoTune(t *testing.T) {
	a := spgemm.RandomProteinNetwork(7, 6, 1)
	want := spgemm.MultiplySerial(a, a, nil)
	cluster := spgemm.NewCluster(16, 1)

	got, stats, err := cluster.Multiply(a, a, spgemm.Options{AutoTune: true})
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.EqualApprox(got, want, 1e-9) {
		t.Error("autotuned multiply differs from serial")
	}
	if stats.Layers < 1 || stats.Batches < 1 {
		t.Errorf("unreported configuration: layers=%d batches=%d", stats.Layers, stats.Batches)
	}
	if stats.Batches != 1 {
		t.Errorf("unconstrained autotune picked b=%d, want 1", stats.Batches)
	}

	_, stats2, err := cluster.Multiply(a, a, spgemm.Options{AutoTune: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Layers != stats2.Layers || stats.Batches != stats2.Batches ||
		stats.Format != stats2.Format || stats.Pipeline != stats2.Pipeline {
		t.Errorf("autotune decision not deterministic: %d/%d/%v/%v vs %d/%d/%v/%v",
			stats.Layers, stats.Batches, stats.Format, stats.Pipeline,
			stats2.Layers, stats2.Batches, stats2.Format, stats2.Pipeline)
	}

	// Under a memory budget the induced batch count must be respected and
	// the run stay correct.
	budget := int64(24) * 8 * a.NNZ()
	gotB, statsB, err := cluster.Multiply(a, a, spgemm.Options{AutoTune: true, MemBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.EqualApprox(gotB, want, 1e-9) {
		t.Error("budgeted autotuned multiply differs from serial")
	}
	if statsB.Batches < 1 {
		t.Errorf("budgeted autotune reported batches=%d", statsB.Batches)
	}
}

func TestFacadeMultiplyDense(t *testing.T) {
	// Unweighted (integer-valued) sparse operand and small-integer panel:
	// every partial sum is exact in float64, so bit-identity is assertable.
	a := spgemm.RandomGraph(6, 6, true, 31)
	b := spgemm.NewDenseMatrix(a.Cols, 6)
	for i := int32(0); i < b.Rows; i++ {
		for j := int32(0); j < b.Cols; j++ {
			b.RowSlice(i)[j] = float64((int(i)*7+int(j)*3)%9 + 1)
		}
	}
	want := spgemm.MultiplyDenseSerial(a, b)
	cluster := spgemm.NewCluster(8, 2)

	for _, tc := range []struct {
		algo spgemm.Algo
		c    int
	}{
		{spgemm.AlgoColA, 2},
		{spgemm.AlgoInnerABC, 2},
		{spgemm.AlgoColA, 1},
	} {
		got, stats, err := cluster.MultiplyDense(a, b, spgemm.Options{
			Algo: tc.algo, Replication: tc.c, Batches: 2,
		})
		if err != nil {
			t.Fatalf("%v c=%d: %v", tc.algo, tc.c, err)
		}
		if !spgemm.DenseEqual(got, want) {
			t.Errorf("%v c=%d: result differs from serial reference", tc.algo, tc.c)
		}
		if stats.Algo != tc.algo || stats.Replication != tc.c || stats.Batches != 2 {
			t.Errorf("%v c=%d: stats report algo=%v c=%d b=%d", tc.algo, tc.c,
				stats.Algo, stats.Replication, stats.Batches)
		}
		if stats.Flops != a.NNZ()*int64(b.Cols) {
			t.Errorf("%v c=%d: flops=%d, want %d", tc.algo, tc.c, stats.Flops, a.NNZ()*int64(b.Cols))
		}
	}

	// The SUMMA arm densifies through the sparse pipeline.
	got, stats, err := cluster.MultiplyDense(a, b, spgemm.Options{Algo: spgemm.AlgoSUMMA})
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.DenseEqual(got, want) {
		t.Error("SUMMA arm differs from serial reference")
	}
	if stats.Algo != spgemm.AlgoSUMMA || stats.Replication != 0 {
		t.Errorf("SUMMA stats report algo=%v c=%d", stats.Algo, stats.Replication)
	}
	if stats.Flops != a.NNZ()*int64(b.Cols) || stats.PeakMemBytes <= 0 {
		t.Errorf("SUMMA stats report flops=%d peak=%d, want flops %d and a positive peak",
			stats.Flops, stats.PeakMemBytes, a.NNZ()*int64(b.Cols))
	}
	// Stats report the batch count the ranks ran: a forced count clamped to
	// the widest block column, or the symbolic step's choice under a budget.
	for _, tc := range []struct {
		name string
		opts spgemm.Options
		want int
	}{
		{"Batches=1000", spgemm.Options{Batches: 1000}, 3},
		{"MemBytes=60000", spgemm.Options{MemBytes: 60000}, 2},
	} {
		got, stats, err := cluster.MultiplyDense(a, b, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !spgemm.DenseEqual(got, want) {
			t.Errorf("SUMMA arm with %s differs from serial reference", tc.name)
		}
		if stats.Batches != tc.want {
			t.Errorf("SUMMA arm with %s: stats report b=%d, the ranks ran %d", tc.name, stats.Batches, tc.want)
		}
	}

	// AutoTune decides the family; the result must not change.
	got, stats, err = cluster.MultiplyDense(a, b, spgemm.Options{AutoTune: true})
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.DenseEqual(got, want) {
		t.Error("autotuned dense multiply differs from serial reference")
	}
	if stats.Algo != spgemm.AlgoSUMMA && stats.Replication < 1 {
		t.Errorf("autotune picked %v with replication %d", stats.Algo, stats.Replication)
	}
}
