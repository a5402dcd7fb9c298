package main

// adapter.go is the only file of the benchmark that calls into the repo. It
// uses each layer's existing public functions and nothing else, so the rest of
// the benchmark keeps compiling when a layer is reworked behind them.

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/mcl"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/distmat"
	"repro/internal/genmat"
	"repro/internal/grid"
	"repro/internal/localmm"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/semiring"
	"repro/internal/service"
	"repro/internal/spmat"
)

type (
	csc        = spmat.CSC
	block      = spmat.Matrix
	arena      = spmat.Arena
	runConfig  = core.RunConfig
	planChoice = planner.Choice
	genSpec    = service.GeneratorSpec
	batching   = distmat.Batching
)

// stepNames are the paper's seven steps, in the paper's order.
var stepNames = core.Steps

func toRef(m *csc) refMat {
	return refMat{rows: m.Rows, cols: m.Cols, colPtr: m.ColPtr, rowIdx: m.RowIdx, val: m.Val}
}

func fromRef(r refMat) *csc {
	return &csc{Rows: r.rows, Cols: r.cols, ColPtr: r.colPtr, RowIdx: r.rowIdx, Val: r.val, SortedCols: true}
}

// ---- genmat ----

func genProtein(scale, edgeFactor int, seed int64) *csc {
	return genmat.SymmetricPermute(genmat.ProteinSimilarity(scale, edgeFactor, seed), seed)
}

func genKmer(reads, kmers int32, perRead int, overlap float64, seed int64) (a, at *csc) {
	a = genmat.Kmer(genmat.KmerConfig{Reads: reads, Kmers: kmers, KmersPerRead: perRead, Overlap: overlap, Seed: seed})
	return a, spmat.Transpose(a)
}

func generate(g genSpec) (*csc, error) { return g.Generate() }

// quantise replaces every value by an integer in 1..4 drawn from the seed, so
// products and sums are exact in float64 and a result check can be exact.
func quantise(m *csc, seed int64) {
	for q := range m.Val {
		m.Val[q] = float64(1 + mix64(uint64(seed)<<32+uint64(q))%4)
	}
}

func flopsOf(a, b *csc) int64 { return localmm.Flops(a, b) }

// ---- core ----

func knl() costmodel.Machine { return costmodel.CoriKNL() }

// engineConfig is a staged run with the storage format left to the engine.
// memBytes > 0 lets the symbolic step choose the batch count; otherwise
// batches is forced.
func engineConfig(p, l, threads int, memBytes int64, batches int) runConfig {
	rc := runConfig{P: p, L: l, Cost: knl().Cost(), Opts: core.Options{Threads: threads}}
	if memBytes > 0 {
		rc.Opts.MemBytes = memBytes
	} else {
		rc.Opts.ForceBatches = batches
	}
	return rc
}

// configFromChoice is the run the daemon makes for a plan it returned, with
// the pipelined schedule forced off so its modeled seconds are the gate's.
func configFromChoice(p, threads int, memBytes int64, ch planChoice) (runConfig, error) {
	rc := runConfig{P: p, L: 1, Cost: knl().Cost(), Opts: core.Options{MemBytes: memBytes, Threads: threads}}
	rc, err := core.ApplyChoice(rc, ch)
	rc.Opts.Pipeline = false
	rc.Opts.Channels = 0
	return rc, err
}

type stepStats struct{ Work, Bytes int64 }

// engineStats is what one distributed multiply reports about itself: the
// gate's modeled seconds, exact counts, and the modeled memory peak.
type engineStats struct {
	ModelS, CommS                                 float64
	WorkUnits, CommBytes, Collectives             int64
	PeakBytes                                     int64
	Batches                                       int
	RankImbalance                                 float64
	Flops, UnmergedNNZ, MergedLayerNNZ, OutputNNZ int64
	Steps                                         map[string]stepStats
	BcastMsgs, AllToAllMsgs, OtherMsgs            int64
}

func statsOf(results []*core.Result, sum *mpi.Summary) engineStats {
	st := engineStats{Steps: map[string]stepStats{}}
	for _, name := range core.Steps {
		s := sum.Step(name)
		st.Steps[name] = stepStats{Work: s.WorkUnits, Bytes: s.Bytes}
		st.CommS += s.CommSeconds
		st.WorkUnits += s.WorkUnits
	}
	st.ModelS = st.CommS + float64(st.WorkUnits)*planner.DefaultSecPerWork
	for _, cat := range sum.Categories() {
		s := sum.Step(cat)
		st.CommBytes += s.Bytes
		st.Collectives += s.Messages
		switch cat {
		case core.StepABcast, core.StepBBcast:
			st.BcastMsgs += s.Messages
		case core.StepAllToAll:
			st.AllToAllMsgs += s.Messages
		default:
			st.OtherMsgs += s.Messages
		}
	}
	var maxFlops int64
	for _, r := range results {
		st.PeakBytes = max(st.PeakBytes, r.PeakMemBytes)
		st.Flops += r.LocalFlops
		maxFlops = max(maxFlops, r.LocalFlops)
		st.UnmergedNNZ += r.UnmergedNNZ
		st.MergedLayerNNZ += r.MergedLayerNNZ
		for _, n := range r.BatchNNZ {
			st.OutputNNZ += n
		}
	}
	st.Batches = results[0].Batches
	if st.Flops > 0 {
		st.RankImbalance = float64(maxFlops) * float64(len(results)) / float64(st.Flops)
	}
	return st
}

// engineMultiply runs one distributed multiply and assembles the output.
func engineMultiply(a, b *csc, rc runConfig) (*csc, engineStats, error) {
	c, results, sum, err := core.Multiply(a, b, rc, nil)
	if err != nil {
		return nil, engineStats{}, err
	}
	return c, statsOf(results, sum), nil
}

// engineDiscard runs one distributed multiply whose batches are folded into a
// signature by a per-rank batch hook and then dropped, as an application that
// cannot hold the output would consume them.
func engineDiscard(a, b *csc, rc runConfig) (signature, engineStats, error) {
	sigs := make([]signature, rc.P)
	hooks := func(rank int) core.BatchHook {
		off := core.RowOffsetFor(a.Rows, rc.P, rc.L, rank)
		return func(_ int, globalCols []int32, c *csc) *csc {
			for x, gc := range globalCols {
				rows, vals := c.Column(int32(x))
				sigs[rank].addColumn(gc, rows, vals, off)
			}
			return nil
		}
	}
	results, sum, err := core.MultiplyDiscard(a, b, rc, hooks)
	if err != nil {
		return signature{}, engineStats{}, err
	}
	var sig signature
	for _, s := range sigs {
		sig.merge(s)
	}
	return sig, statsOf(results, sum), nil
}

// engineObsTraced is engineMultiply with the repo's own span recorder on; it
// returns how many spans the run recorded.
func engineObsTraced(a, b *csc, rc runConfig) (int, error) {
	rc.Trace = obs.NewRecorder(rc.P)
	_, _, _, err := core.Multiply(a, b, rc, nil)
	return len(rc.Trace.Spans()), err
}

func engineSymbolic(a, b *csc, rc runConfig) (int, error) { return core.SymbolicBatches(a, b, rc) }

// ---- distmat, localmm, spmat: the pieces the replay pass times ----

// layout splits operands over a q×q×l grid exactly as core.Setup does.
type layout struct {
	q, l   int
	da     *distmat.ADist
	db     *distmat.BDist
	format spmat.Format
}

func newLayout(a, b *csc, rc runConfig) (layout, error) {
	q, err := grid.SideFor(rc.P, rc.L)
	if err != nil {
		return layout{}, err
	}
	return layout{
		q: q, l: rc.L, format: rc.Opts.Format,
		da: distmat.NewADist(a.Rows, a.Cols, q, rc.L),
		db: distmat.NewBDist(b.Rows, b.Cols, q, rc.L),
	}, nil
}

func (ly layout) blockA(a *csc, i, j, k int) block { return ly.da.LocalMat(a, i, j, k, ly.format) }
func (ly layout) blockB(b *csc, i, j, k int) block { return ly.db.LocalMat(b, i, j, k, ly.format) }

// batchingOf is the block-cyclic batching of block column j.
func (ly layout) batchingOf(j, batches int) batching {
	c0, c1 := ly.db.ColRangeOf(j)
	return distmat.NewBatching(c1-c0, batches, ly.l)
}

func batchPiece(localB block, bt batching, t int) block {
	return spmat.MatColSelect(localB, bt.BatchCols(t))
}

func splitByLayer(d block, bt batching, t int) []block {
	pieces, _ := bt.SplitByLayerMat(d, t)
	return pieces
}

func sr(rc runConfig) *semiring.Semiring {
	if rc.Opts.Semiring != nil {
		return rc.Opts.Semiring
	}
	return semiring.PlusTimes()
}

func mulBlocks(rc runConfig, a, b block, threads int) block {
	return localmm.MulMat(rc.Opts.Kernel, a, b, sr(rc), threads)
}

func mergeBlocks(rc runConfig, mats []block, sorted bool, threads int) block {
	return localmm.MergeMat(rc.Opts.Merger, mats, sr(rc), sorted, threads)
}

func symbolicBlocks(a, b block, threads int) int64 { return localmm.SymbolicMat(a, b, threads) }

func blockFlops(a, b block) int64 { return localmm.MatFlops(a, b) }

// scanCols is the column-metadata term of the engine's work accounting: every
// column of a CSC block, only the stored ones of a DCSC block.
func scanCols(m block) int64 {
	if m.Format() == spmat.FormatDCSC {
		return m.NonEmptyCols()
	}
	_, cols := m.Dims()
	return int64(cols)
}

func isDCSC(m block) bool { return m.Format() == spmat.FormatDCSC }

func serializeBlock(m block) []byte { return m.Serialize() }

func deserializeBlock(buf []byte, ar *arena) error {
	_, err := spmat.DeserializeMatrixInto(buf, ar)
	return err
}

func fingerprintHash(m block) string { return spmat.FingerprintOf(m).Hash }

// wireBytes is the size serializeBlock(m) would have, without encoding it.
func wireBytes(m block) int64 { return m.CommBytes() }

var kernelTable = costmodel.DefaultKernelTable()

// predictMultiply and predictMerge are the default kernel cost table's
// wall-second predictions for the kernel and merger rc runs.
func predictMultiply(rc runConfig, flops, cols int64) float64 {
	return kernelTable.Predict(rc.Opts.Kernel.String(), flops, cols)
}

func predictMerge(rc runConfig, entries, cols int64) float64 {
	return kernelTable.Predict(rc.Opts.Merger.String(), entries, cols)
}

// ---- mpi ----

func mpiSpawn(p int) { mpi.Run(p, knl().Cost(), func(*mpi.Comm) {}) }

// collectiveCosts are the simulator's own wall microseconds per zero-payload
// collective, every rank of a p-rank world taking part at once.
type collectiveCosts struct{ SplitUs, BcastUs, AllToAllUs, AllreduceUs float64 }

// mpiCollectives times reps rounds of each collective the engine uses, on
// communicators of the sizes a q×q×l grid gives them: broadcasts along a row
// of q, the exchange along a fiber of l, reductions over the world.
func mpiCollectives(p, l, reps int) (collectiveCosts, error) {
	q, err := grid.SideFor(p, l)
	if err != nil {
		return collectiveCosts{}, err
	}
	var out collectiveCosts
	mpi.Run(p, knl().Cost(), func(c *mpi.Comm) {
		r := c.Rank()
		k, i, j := r/(q*q), (r%(q*q))/q, r%q
		timed := func(n int, fn func()) float64 {
			c.Barrier()
			t0 := time.Now()
			for x := 0; x < n; x++ {
				fn()
			}
			c.Barrier()
			return time.Since(t0).Seconds() * 1e6 / float64(n)
		}
		var row, fiber *mpi.Comm
		split := timed(1, func() {
			row = c.Split(k*q+i, j)
			fiber = c.Split(l*q+i*q+j, k)
		}) / 2
		bcast := timed(reps, func() { row.Bcast(0, mpi.Bytes(0)) })
		send := make([]mpi.Payload, l)
		for m := range send {
			send[m] = mpi.Bytes(0)
		}
		a2a := timed(reps, func() { fiber.AllToAllv(send) })
		red := timed(reps, func() { c.AllreduceInt64(1, mpi.OpMax) })
		if r == 0 {
			out = collectiveCosts{SplitUs: split, BcastUs: bcast, AllToAllUs: a2a, AllreduceUs: red}
		}
	})
	return out, nil
}

// ---- planner ----

func plannerProbe(a, b *csc) error {
	_, err := planner.ProbePair(a, b, 0)
	return err
}

// planOutcome is a planning run: how many configurations it ranked, and what
// it predicts for the configuration rc actually runs with the given batches.
type planOutcome struct {
	Candidates      int
	PredictedModelS float64
	PredictedPeak   int64
}

func plannerPlan(a, b *csc, rc runConfig, batches int) (planOutcome, error) {
	pl, err := planner.New(a, b, core.PlanInput(rc, knl()))
	if err != nil {
		return planOutcome{}, err
	}
	if pl.Best() == nil {
		return planOutcome{}, fmt.Errorf("planner: no feasible configuration")
	}
	cand, err := pl.Evaluate(planner.Config{L: rc.L, B: batches, Format: rc.Opts.Format, SparseComm: rc.Opts.SparseComm})
	if err != nil {
		return planOutcome{}, err
	}
	return planOutcome{Candidates: len(pl.Candidates), PredictedModelS: cand.ModelSeconds, PredictedPeak: cand.PeakMemBytesPerRank}, nil
}

// ---- service ----

// byteMeter counts the HTTP body bytes a client sends and receives.
type byteMeter struct {
	next     http.RoundTripper
	up, down atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (m *byteMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		m.up.Add(req.ContentLength)
	}
	resp, err := m.next.RoundTrip(req)
	if err == nil {
		resp.Body = countingBody{resp.Body, &m.down}
	}
	return resp, err
}

// daemon is spgemmd inside this process: the two calls cmd/spgemmd makes
// (service.New, service.Handler) behind a loopback TCP listener.
type daemon struct {
	svc       *service.Service
	client    *service.Client
	srv       *http.Server
	transport *http.Transport
	meter     *byteMeter
	served    sync.WaitGroup
}

func bootDaemon(p, threads int, memBytes int64) (*daemon, error) {
	svc, err := service.New(service.Config{P: p, Machine: knl(), MemBytes: memBytes, Threads: threads})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{svc: svc, srv: &http.Server{Handler: service.Handler(svc)}, transport: &http.Transport{}}
	d.meter = &byteMeter{next: d.transport}
	d.client = &service.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: d.meter}}
	d.served.Add(1)
	go func() {
		defer d.served.Done()
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed from stop
	}()
	return d, nil
}

// stop closes the listener and every connection and waits for the server
// goroutine to return.
func (d *daemon) stop() {
	d.transport.CloseIdleConnections()
	_ = d.srv.Close() // listener and connections are gone either way
	d.served.Wait()
}

func (d *daemon) trafficBytes() (up, down int64) { return d.meter.up.Load(), d.meter.down.Load() }

func (d *daemon) load(name string, m *csc) error {
	_, err := d.client.Load(name, m)
	return err
}

func (d *daemon) loadGenerated(name string, g genSpec) error {
	_, err := d.client.LoadGenerated(name, g)
	return err
}

func (d *daemon) plan(a, b string) (planChoice, bool, error) {
	res, err := d.client.Plan(a, b)
	return res.Choice, res.CacheHit, err
}

// jobInfo is what /multiply reports about the job beside its output.
type jobInfo struct {
	NNZ      int64
	Batches  int
	Choice   planChoice
	CacheHit bool
	ObsSpans bool
}

func (d *daemon) multiply(a, b string, returnResult, obsTrace bool) (jobInfo, *csc, error) {
	resp, c, err := d.client.Multiply(service.MultiplyRequest{A: a, B: b, ReturnResult: returnResult, Trace: obsTrace})
	return jobInfo{NNZ: resp.NNZ, Batches: resp.Batches, Choice: resp.Plan.Choice, CacheHit: resp.Plan.CacheHit, ObsSpans: len(resp.Trace) > 0}, c, err
}

// multiplyMatrices is the apps' path: upload both operands under content
// names, multiply, download the result.
func (d *daemon) multiplyMatrices(a, b *csc) (*csc, error) {
	return d.client.MultiplyMatrices(a, b, "plus-times")
}

// multiplyInProcess is the same job without HTTP or JSON.
func (d *daemon) multiplyInProcess(a, b string) error {
	_, err := d.svc.Multiply(service.MultiplyRequest{A: a, B: b})
	return err
}

// daemonStats are the /stats counters the benchmark reports.
type daemonStats struct {
	LoadRequests, PlanHits, PlanMisses, Probes, QueuedJobs, JobFailures int64
	QueueWaitS                                                          float64
}

func (d *daemon) stats() (daemonStats, error) {
	s, err := d.client.Stats()
	return daemonStats{
		LoadRequests: s.Requests["load"], PlanHits: s.PlanHits, PlanMisses: s.PlanMisses, Probes: s.Probes,
		QueuedJobs: s.QueuedJobs, JobFailures: s.JobFailures, QueueWaitS: s.QueueWaitSeconds,
	}, err
}

// ---- apps ----

// mclVia runs exactly maxIter Markov-clustering iterations (a negative chaos
// tolerance is never met) with every expansion done by mul.
func mclVia(a *csc, maxIter int, mul func(a, b *csc) (*csc, error)) (int, error) {
	res, err := mcl.ClusterVia(a, mcl.Config{MaxIter: maxIter, ChaosTol: -1},
		func(a, b *csc, _ string) (*csc, error) { return mul(a, b) })
	if err != nil {
		return 0, err
	}
	return len(res.Iters), nil
}
