package service

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/spmat"
)

// pinPlan makes ch the cached plan for a·b, so the next job on the pair runs
// exactly that grid, format and schedule.
func pinPlan(t *testing.T, s *Service, a, b string, ch planner.Choice) {
	t.Helper()
	ra, err := s.reg.get(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.reg.get(b)
	if err != nil {
		t.Fatal(err)
	}
	key := planner.CacheKey(ra.fp.Key(), rb.fp.Key(), core.PlanInput(s.runConfig(), s.cfg.Machine))
	if _, _, err := s.plans.PlanThrough(key, func() (planner.Choice, error) { return ch, nil }); err != nil {
		t.Fatal(err)
	}
}

// freshRanks runs ch on a·b through core.MultiplyRanks, traced, dealing both
// operands anew, the way the service ran every job before it kept split sets.
func freshRanks(t *testing.T, s *Service, a, b *spmat.CSC, ch planner.Choice) ([]*core.Result, *obs.Recorder, float64) {
	t.Helper()
	rc, err := core.ApplyChoice(s.runConfig(), ch)
	if err != nil {
		t.Fatal(err)
	}
	rc.Trace = obs.NewRecorder(rc.P)
	results, summary, err := core.MultiplyRanks(a, b, rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var comm float64
	for _, st := range summary.Steps {
		comm += st.CommSeconds * s.cfg.Machine.CommScale
	}
	return results, rc.Trace, comm
}

// volumes totals a traced run's modeled volumes: collectives, bytes and work
// units. Unlike the modeled seconds they do not depend on how long the
// compute took.
func volumes(rec *obs.Recorder) [3]int64 {
	var v [3]int64
	for _, sp := range rec.Spans() {
		v[0] += sp.Msgs
		v[1] += sp.Bytes
		v[2] += sp.Work
	}
	return v
}

// A job that runs on cached split sets reports what the job that dealt them
// reported, and what a fresh core.MultiplyRanks on the same operands gives:
// the product bit for bit, the batch count, the peak and the modeled volumes,
// on every grid a 16-rank service runs, in every format, staged and
// pipelined — and in the staged schedule the modeled communication seconds.
// (Compute seconds are measured wall time, and the pipelined schedule hides
// communication behind them, so neither repeats to the last digit.) One
// service runs every combination, so each job finds the sets of the others
// beside the ones it needs; the schedule is not part of a set's key, so the
// pipelined jobs run on the sets the staged jobs dealt.
func TestSplitCacheHitMatchesMissAndFreshRun(t *testing.T) {
	a := genmat.RMAT(genmat.RMATConfig{Scale: 6, EdgeFactor: 8, Seed: 41, Weighted: true})
	b := genmat.ER(64, 6, 42)
	cfg := testConfig(t, a)
	cfg.MemBytes *= 4 // room for all eighteen sets: nothing is evicted
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n, m := range map[string]*spmat.CSC{"a": a, "b": b} {
		if _, _, err := s.Load(n, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []int{1, 4, 16} {
		for _, f := range []string{"csc", "dcsc", "auto"} {
			for _, pipe := range []bool{false, true} {
				name := fmt.Sprintf("l=%d/%s/pipeline=%v", l, f, pipe)
				ch := planner.Choice{L: l, B: 1, Format: f, Pipeline: pipe, SparseComm: "off"}
				s.plans = NewPlanCache()
				pinPlan(t, s, "a", "b", ch)
				before := s.Stats()
				first, firstC := product(t, s, MultiplyRequest{A: "a", B: "b", Trace: true})
				repeat, repeatC := product(t, s, MultiplyRequest{A: "a", B: "b", Trace: true})
				// The first job of a layer count and format deals both operands.
				misses := int64(2)
				if pipe {
					misses = 0
				}
				if st := s.Stats(); st.SplitCacheMisses-before.SplitCacheMisses != misses || st.SplitCacheHits-before.SplitCacheHits != 4-misses || st.SplitCacheEvictions != 0 {
					t.Fatalf("%s: two jobs took %d split-cache misses and %d hits (%d evictions so far); want %d and %d",
						name, st.SplitCacheMisses-before.SplitCacheMisses, st.SplitCacheHits-before.SplitCacheHits, st.SplitCacheEvictions, misses, 4-misses)
				}
				results, trace, comm := freshRanks(t, s, a, b, ch)
				want, err := core.AssembleResults(results, a.Rows, b.Cols)
				if err != nil {
					t.Fatal(err)
				}
				var peak int64
				for _, r := range results {
					peak = max(peak, r.PeakMemBytes)
				}
				for what, job := range map[string]struct {
					res *MultiplyResult
					c   *spmat.CSC
				}{"first": {first, firstC}, "repeat": {repeat, repeatC}} {
					res := job.res
					if !bytes.Equal(job.c.Serialize(), want.Serialize()) {
						t.Errorf("%s: the %s job's product differs from a fresh MultiplyRanks", name, what)
					}
					if res.Batches != results[0].Batches || res.PeakMemBytesPerRank != peak || volumes(res.Trace) != volumes(trace) {
						t.Errorf("%s: the %s job ran %d batches, peak %d, volumes %v; fresh: %d, %d, %v",
							name, what, res.Batches, res.PeakMemBytesPerRank, volumes(res.Trace), results[0].Batches, peak, volumes(trace))
					}
					// The service sums its steps in map order, so the last bits
					// of the total may differ.
					if !pipe && math.Abs(res.CommSeconds-comm) > 1e-12*comm {
						t.Errorf("%s: the %s job's modeled communication is %g s, fresh %g s", name, what, res.CommSeconds, comm)
					}
				}
			}
		}
	}
	if st := s.Stats(); st.SplitCacheEntries != 18 {
		t.Errorf("%d split sets kept, want 2 roles × 3 layer counts × 3 formats", st.SplitCacheEntries)
	}
}

// Jobs read their cached blocks and never write them: after a storm of
// concurrent count-only and returning jobs, every cached block still
// fingerprints like the same block dealt afresh from the resident matrix, and
// every product is the one-shot product.
func TestSplitCacheBlocksSurviveConcurrentJobs(t *testing.T) {
	mats := map[string]*spmat.CSC{
		"rmat":  genmat.RMAT(genmat.RMATConfig{Scale: 6, EdgeFactor: 8, Seed: 7, Weighted: true}),
		"er":    genmat.ER(64, 6, 11),
		"hyper": genmat.Hypersparse(256, 256, 2, 13),
	}
	pairs := [][2]string{{"rmat", "rmat"}, {"er", "er"}, {"hyper", "hyper"}, {"rmat", "er"}}
	cfg := testConfig(t, mats["rmat"], mats["er"], mats["hyper"])
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range mats {
		if _, _, err := s.Load(name, m); err != nil {
			t.Fatal(err)
		}
	}
	want := map[[2]string][]byte{}
	for _, pr := range pairs {
		want[pr] = oneShot(t, mats[pr[0]], mats[pr[1]], cfg).Serialize()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(pairs))
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range pairs {
				pr := pairs[(c+i)%len(pairs)]
				_, got, err := s.multiplyProduct(MultiplyRequest{A: pr[0], B: pr[1], ReturnResult: c%2 == 0})
				if err == nil && c%2 == 0 && (got == nil || !bytes.Equal(got.Serialize(), want[pr])) {
					err = fmt.Errorf("output differs from the one-shot product")
				}
				if err != nil {
					errs <- fmt.Errorf("client %d %v: %w", c, pr, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s.splits.mu.Lock()
	defer s.splits.mu.Unlock()
	if s.splits.lru.Len() == 0 {
		t.Fatal("no split set was cached")
	}
	for e := s.splits.lru.Front(); e != nil; e = e.Next() {
		set := e.Value.(*splitSet)
		rc := s.runConfig()
		rc.L, rc.Opts.Format = set.key.l, set.key.format
		fresh, err := core.Deal(set.owner.mat, set.key.role, rc)
		if err != nil {
			t.Fatal(err)
		}
		for i, blk := range set.dealt.Blocks() {
			if got, want := spmat.FingerprintOf(blk), spmat.FingerprintOf(fresh.Blocks()[i]); got != want {
				t.Errorf("%s as %v (l=%d, %v) block %d: fingerprint %s, dealt afresh %s",
					set.owner.name, set.key.role, set.key.l, set.key.format, i, got.Key(), want.Key())
			}
		}
	}
}

// Jobs that miss one key at the same time deal it once: the first publishes
// the set before it deals, and the rest wait for it.
func TestSplitCacheDealsAKeyOnce(t *testing.T) {
	m := genmat.ER(1<<13, 8, 5)
	s, err := New(Config{P: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load("m", m); err != nil {
		t.Fatal(err)
	}
	r, err := s.reg.get("m")
	if err != nil {
		t.Fatal(err)
	}
	rc := s.runConfig()
	const jobs = 8
	got := make([]*core.Dealt, jobs)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for j := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			d, err := s.splits.deal(r, core.RoleB, rc)
			if err != nil {
				t.Error(err)
			}
			got[j] = d
		}()
	}
	close(start)
	wg.Wait()
	for j := range got {
		if got[j] != got[0] {
			t.Fatalf("job %d runs on another dealt copy than job 0", j)
		}
	}
	if st := s.Stats(); st.SplitCacheMisses != 1 || st.SplitCacheHits != jobs-1 || st.SplitCacheEntries != 1 {
		t.Fatalf("%d concurrent jobs on one key: %d misses, %d hits, %d entries; want 1, %d, 1",
			jobs, st.SplitCacheMisses, st.SplitCacheHits, st.SplitCacheEntries, jobs-1)
	}

	// Two whole jobs on a cold pair deal each of its two operands once.
	s, err = New(Config{P: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load("m", m); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Multiply(MultiplyRequest{A: "m", B: "m"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.SplitCacheMisses != 2 || st.SplitCacheHits != 2 {
		t.Fatalf("two jobs on m·m: %d misses, %d hits; want 2 and 2", st.SplitCacheMisses, st.SplitCacheHits)
	}
}

// The split cache keeps its sets and charges each by its blocks' lengths
// (spmat.BlockMemBytes), so a set must hold no capacity beyond them — even
// when one-shot multiplies in the same process have just filled spmat's free
// list of arrays with arrays a best fit would hand it. Every format's set is
// dealt after a one-shot call on a slightly larger operand released its deal
// and returned its loans, with nothing run in between: the set takes
// nothing from the list, its AUX arrays (built by a lookup) neither, and
// every array is exactly as long as it is large.
func TestSplitCacheDealsExactAfterOneShotCalls(t *testing.T) {
	m, larger := genmat.ER(2048, 8, 71), genmat.ER(2560, 8, 72)
	s, err := New(Config{P: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load("m", m); err != nil {
		t.Fatal(err)
	}
	r, err := s.reg.get("m")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []spmat.Format{spmat.FormatCSC, spmat.FormatDCSC, spmat.FormatAuto} {
		rc := s.runConfig()
		rc.Opts.Format = f
		if _, _, _, err := core.Multiply(larger, larger, rc, nil); err != nil {
			t.Fatal(err)
		}
		before := spmat.IdleBytes()
		if before == 0 {
			t.Fatalf("format %v: a one-shot multiply left the free list empty", f)
		}
		for _, role := range []core.Role{core.RoleA, core.RoleB} {
			d, err := s.splits.deal(r, role, rc)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range d.Blocks() {
				var exact bool
				switch b := b.(type) {
				case *spmat.CSC:
					exact = cap(b.ColPtr) == len(b.ColPtr) && cap(b.RowIdx) == len(b.RowIdx) && cap(b.Val) == len(b.Val)
				case *spmat.DCSC:
					exact = cap(b.JC) == len(b.JC) && cap(b.CP) == len(b.CP) && cap(b.IR) == len(b.IR) && cap(b.Num) == len(b.Num)
					if len(b.JC) > 0 {
						b.Locate(b.JC[:1], make([]int32, 1))
					}
				}
				if !exact {
					t.Errorf("format %v: the cached %v set's block %d (%v) holds an array larger than its length", f, role, i, b)
				}
			}
		}
		if after := spmat.IdleBytes(); after != before {
			t.Errorf("format %v: the split cache took %d bytes from the free list", f, before-after)
		}
	}
}

// Under a budget that holds one pair's split sets but not two, alternating
// the pairs evicts the older pair's sets: the cached bytes never exceed the
// budget, the products stay the one-shot products, and /stats and /metrics
// report the same cache.
func TestSplitCacheEvictsWithinTheBudget(t *testing.T) {
	x, y := genmat.ER(2048, 8, 61), genmat.ER(2048, 8, 62)
	// A pair's two sets, at flat CSC bytes (24 a nonzero): the budget holds
	// two sets of either operand and not three.
	pair := 2 * spmat.BytesPerNonzero * max(x.NNZ(), y.NNZ())
	cfg := Config{P: 16, MemBytes: pair * 5 / 4}
	cl, s := startServer(t, cfg)
	for n, m := range map[string]*spmat.CSC{"x": x, "y": y} {
		if _, err := cl.Load(n, m); err != nil {
			t.Fatal(err)
		}
	}
	ch := planner.Choice{L: 1, B: 1, Format: "csc", SparseComm: "off"}
	pinPlan(t, s, "x", "x", ch)
	pinPlan(t, s, "y", "y", ch)
	rc, err := core.ApplyChoice(s.runConfig(), ch)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for n, m := range map[string]*spmat.CSC{"x": x, "y": y} {
		c, _, _, err := core.Multiply(m, m, rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[n] = c.Serialize()
	}
	for i, n := range []string{"x", "y", "x", "y", "x"} {
		_, c, err := cl.Multiply(MultiplyRequest{A: n, B: n, ReturnResult: true})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.Serialize(), want[n]) {
			t.Errorf("job %d (%s·%s): product differs from the one-shot product", i, n, n)
		}
		st := s.Stats()
		if st.SplitCacheBytes > cfg.MemBytes || st.SplitCacheBytes <= 0 || st.SplitCacheEntries != 2 {
			t.Fatalf("job %d: %d cached bytes in %d sets under a %d-byte budget", i, st.SplitCacheBytes, st.SplitCacheEntries, cfg.MemBytes)
		}
		if st.SplitCacheEvictions != int64(2*i) || st.SplitCacheMisses != int64(2*(i+1)) {
			t.Errorf("job %d: %d evictions and %d misses, want %d and %d", i, st.SplitCacheEvictions, st.SplitCacheMisses, 2*i, 2*(i+1))
		}
	}
	m := scrapeMetrics(t, cl)
	st := s.Stats()
	for metric, v := range map[string]float64{
		"spgemmd_split_cache_bytes":           float64(st.SplitCacheBytes),
		"spgemmd_split_cache_entries":         float64(st.SplitCacheEntries),
		"spgemmd_split_cache_hits_total":      float64(st.SplitCacheHits),
		"spgemmd_split_cache_misses_total":    float64(st.SplitCacheMisses),
		"spgemmd_split_cache_evictions_total": float64(st.SplitCacheEvictions),
	} {
		if got, ok := m[metric]; !ok || got != v {
			t.Errorf("%s = %g (present %v), /stats says %g", metric, got, ok, v)
		}
	}
}

// blockedWriter is a ResponseWriter whose client reads the body only when the
// test lets it: every Write waits for the reader, as a write to a client that
// has stopped reading does once the socket buffers are full.
type blockedWriter struct {
	header http.Header
	*io.PipeWriter
}

func (w blockedWriter) Header() http.Header { return w.header }
func (w blockedWriter) WriteHeader(int)     {}

// A returned product is read from the ranks' pieces while it is written, so
// its job holds its admission reservation until the last byte is out: while a
// client has not read the body, a second job whose reservation does not fit
// beside the first stays queued, and it runs once the body has been read.
func TestReservationHeldWhileTheProductIsWritten(t *testing.T) {
	a := genmat.ER(64, 6, 71)
	s, err := New(Config{P: 16, MemBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load("a", a); err != nil {
		t.Fatal(err)
	}
	// A plan whose reservation is more than half the budget.
	pinPlan(t, s, "a", "a", planner.Choice{L: 1, B: 1, Format: "csc", SparseComm: "off", PeakMemBytesPerRank: (1 << 30) / 16 * 3 / 4})

	rd, wr := io.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer wr.Close()
		req := httptest.NewRequest("POST", "/multiply", strings.NewReader(`{"a":"a","b":"a","return_result":true}`))
		Handler(s).ServeHTTP(blockedWriter{header: http.Header{}, PipeWriter: wr}, req)
	}()
	// Read the document line — the job has run — and then stop reading.
	var line []byte
	for b := make([]byte, 1); len(line) == 0 || line[len(line)-1] != '\n'; {
		if _, err := rd.Read(b); err != nil {
			t.Fatal(err)
		}
		line = append(line, b[0])
	}
	second := make(chan error, 1)
	go func() {
		_, err := s.Multiply(MultiplyRequest{A: "a", B: "a"})
		second <- err
	}()
	waitQueued(s.sched, 1)
	select {
	case err := <-second:
		t.Fatalf("a second job ran beside an unread product (%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if used := s.sched.UsedBytes(); used != (1<<30)/16*3/4*16 {
		t.Fatalf("%d bytes reserved while the product is unread, want the first job's", used)
	}
	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	<-served
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if c, err := spmat.DeserializeMatrix(rest); err != nil || c.NNZ() == 0 {
		t.Fatalf("the product after the document: %v, %v", c, err)
	}
}
