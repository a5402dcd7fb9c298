package service

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/planner"
	"repro/internal/spmat"
)

// TestMain runs this package's tests with returned chunks poisoned
// (spmat.PoisonReleased). A returned product is streamed, or
// assembled by Product, from the ranks' pieces, which are lent kernel chunks
// that go back once that reader is done: a product read after they went back
// is every row −1 and every value NaN, and fails its byte comparison.
func TestMain(m *testing.M) {
	spmat.PoisonReleased.Store(true)
	os.Exit(m.Run())
}

// multiplyProduct runs one job as the /multiply handler does and, where the
// handler streams the product, assembles it (core.AssembleResults) from the
// ranks' pieces while they are still lent; the job hands their chunks back
// once that is done. The product is nil when the request did not set
// ReturnResult.
func (s *Service) multiplyProduct(req MultiplyRequest) (*MultiplyResult, *spmat.CSC, error) {
	var c *spmat.CSC
	var aerr error
	res, err := s.multiply(req, func(r *MultiplyResult) {
		if r.ranks != nil {
			c, aerr = core.AssembleResults(r.ranks, r.Rows, r.Cols)
		}
	})
	if err == nil {
		err = aerr
	}
	return res, c, err
}

// testConfig is a small cluster with a budget tight enough to force multi-
// batch execution on the test workloads, so the admission scheduler and the
// symbolic step both do real work.
func testConfig(t *testing.T, mats ...*spmat.CSC) Config {
	t.Helper()
	// Budget: half the largest pair's unconstrained intermediate, so the
	// symbolic step picks b ≥ 2 for at least the big self-products.
	var maxFlops int64
	for _, m := range mats {
		if f := localmm.Flops(m, m); f > maxFlops {
			maxFlops = f
		}
	}
	mem := 24 * maxFlops // r=24 bytes per nnz, intermediate ≈ flops/2 entries
	return Config{P: 16, Machine: costmodel.CoriKNL(), MemBytes: mem}
}

// oneShot runs the same multiply the service would, as a standalone
// autotuned call with no cache, no registry, no scheduler.
func oneShot(t *testing.T, a, b *spmat.CSC, cfg Config) *spmat.CSC {
	t.Helper()
	rc := core.RunConfig{P: cfg.P, L: 1, Cost: cfg.Machine.Cost(),
		Opts: core.Options{MemBytes: cfg.MemBytes, Threads: cfg.Threads}}
	rc, _, err := core.AutoTuneOnMachine(a, b, rc, cfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	c, _, _, err := core.Multiply(a, b, rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// product runs a job that asks for its product back (multiplyProduct) and
// returns the job and the product, which must exist.
func product(t *testing.T, s *Service, req MultiplyRequest) (*MultiplyResult, *spmat.CSC) {
	t.Helper()
	req.ReturnResult = true
	res, c, err := s.multiplyProduct(req)
	if err != nil || c == nil {
		t.Fatalf("%s·%s: product %v, error %v", req.A, req.B, c, err)
	}
	return res, c
}

// A request that does not ask for the result back keeps no product — the job
// never holds one past its run — and the same shape, nonzero count, batch count
// and counters as the request that does: they come from the ranks' results.
// One that does, run in process with nobody to hand the product to
// (Service.Multiply), hands it back before it returns.
func TestMultiplyWithoutResultReportsTheSame(t *testing.T) {
	a := genmat.RMAT(genmat.RMATConfig{Scale: 6, EdgeFactor: 8, Seed: 1, Weighted: true})
	rect := genmat.Hypersparse(64, 700, 2, 9)
	s, err := New(testConfig(t, a))
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*spmat.CSC{"a": a, "rect": rect, "rectT": spmat.Transpose(rect)} {
		if _, _, err := s.Load(name, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]string{{"a", "a"}, {"a", "rect"}, {"rectT", "a"}} {
		with, wc := product(t, s, MultiplyRequest{A: pair[0], B: pair[1]})
		without, c, err := s.multiplyProduct(MultiplyRequest{A: pair[0], B: pair[1]})
		if err != nil {
			t.Fatal(err)
		}
		if c != nil {
			t.Fatalf("%v: a result nobody asked for was kept: %v", pair, c)
		}
		if r, c := wc.Dims(); with.Rows != r || with.Cols != c || with.NNZ != wc.NNZ() {
			t.Fatalf("%v: response says %dx%d nnz %d, the result is %v", pair, with.Rows, with.Cols, with.NNZ, wc)
		}
		if without.Rows != with.Rows || without.Cols != with.Cols || without.NNZ != with.NNZ ||
			without.Batches != with.Batches || without.PeakMemBytesPerRank != with.PeakMemBytesPerRank {
			t.Fatalf("%v: response without the result differs: %+v vs %+v", pair, without, with)
		}
		inProc, err := s.Multiply(MultiplyRequest{A: pair[0], B: pair[1], ReturnResult: true})
		if err != nil {
			t.Fatal(err)
		}
		if inProc.ranks != nil || inProc.NNZ != with.NNZ {
			t.Fatalf("%v: an in-process job kept a product no caller can read (nnz %d, want %d)", pair, inProc.NNZ, with.NNZ)
		}
	}
	if st := s.Stats(); st.Multiplies != 9 || st.JobFailures != 0 {
		t.Fatalf("9 jobs ran; stats count %d done, %d failed", st.Multiplies, st.JobFailures)
	}
}

// A repeated multiply on resident matrices must perform zero probe work
// after the first request: the second request is a pure plan-cache hit.
func TestRepeatMultiplyZeroProbeWork(t *testing.T) {
	a := genmat.RMAT(genmat.RMATConfig{Scale: 6, EdgeFactor: 8, Seed: 1, Weighted: true})
	cfg := testConfig(t, a)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load("a", a); err != nil {
		t.Fatal(err)
	}

	first, firstC := product(t, s, MultiplyRequest{A: "a", B: "a"})
	if first.Plan.CacheHit {
		t.Fatalf("first request must be a plan-cache miss")
	}
	if got := s.Stats().Probes; got != 1 {
		t.Fatalf("first request should probe exactly once, got %d", got)
	}
	firstWire := firstC.Serialize()

	for i := 0; i < 3; i++ {
		rep, repC := product(t, s, MultiplyRequest{A: "a", B: "a"})
		if !rep.Plan.CacheHit {
			t.Fatalf("repeat %d must be a plan-cache hit", i)
		}
		if !bytes.Equal(repC.Serialize(), firstWire) {
			t.Fatalf("repeat %d output differs from first", i)
		}
	}
	st := s.Stats()
	if st.Probes != 1 {
		t.Fatalf("repeats performed probe work: %d probes for 4 requests", st.Probes)
	}
	if st.PlanHits != 3 || st.PlanMisses != 1 {
		t.Fatalf("want 3 hits / 1 miss, got %d / %d", st.PlanHits, st.PlanMisses)
	}

	// And the cached plan must execute exactly what a one-shot autotuned
	// multiply would.
	want := oneShot(t, a, a, cfg)
	if !bytes.Equal(firstWire, want.Serialize()) {
		t.Fatalf("service output differs from one-shot autotuned Multiply")
	}
}

// The concurrency workout: N clients fire mixed jobs over a shared set of
// resident matrices under a tight budget. Every output must be bit-identical
// to the sequential one-shot run, the test must not deadlock (admission is
// FIFO with an oversized-alone escape), and after a sequential warmup pass
// the storm must add zero plan-cache misses.
func TestConcurrentJobsBitIdenticalAndZeroMissesAfterWarmup(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	mats := map[string]*spmat.CSC{
		"rmat":  genmat.RMAT(genmat.RMATConfig{Scale: 6, EdgeFactor: 8, Seed: 7, Weighted: true}),
		"er":    genmat.ER(64, 6, 11),
		"hyper": genmat.Hypersparse(256, 256, 2, 13),
	}
	pairs := [][2]string{
		{"rmat", "rmat"},
		{"er", "er"},
		{"hyper", "hyper"},
		{"rmat", "er"},
	}
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

	// Sequential warmup + golden outputs.
	want := make(map[[2]string][]byte)
	for _, pr := range pairs {
		_, c := product(t, s, MultiplyRequest{A: pr[0], B: pr[1]})
		want[pr] = c.Serialize()
		// The goldens really are the one-shot results.
		one := oneShot(t, mats[pr[0]], mats[pr[1]], cfg)
		if !bytes.Equal(want[pr], one.Serialize()) {
			t.Fatalf("%v: warmup output differs from one-shot Multiply", pr)
		}
	}
	warm := s.Stats()

	const clients = 8
	const perClient = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				pr := pairs[(c+i)%len(pairs)]
				res, got, err := s.multiplyProduct(MultiplyRequest{A: pr[0], B: pr[1], ReturnResult: true})
				if err != nil {
					errs <- fmt.Errorf("client %d job %d %v: %w", c, i, pr, err)
					return
				}
				if !res.Plan.CacheHit {
					errs <- fmt.Errorf("client %d job %d %v: plan-cache miss after warmup", c, i, pr)
					return
				}
				if got == nil || !bytes.Equal(got.Serialize(), want[pr]) {
					errs <- fmt.Errorf("client %d job %d %v: output differs from sequential one-shot", c, i, pr)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.PlanMisses != warm.PlanMisses {
		t.Errorf("storm added plan-cache misses: %d -> %d", warm.PlanMisses, st.PlanMisses)
	}
	if st.Probes != warm.Probes {
		t.Errorf("storm performed probe work: %d -> %d probes", warm.Probes, st.Probes)
	}
	if got := st.Multiplies; got != int64(len(pairs)+clients*perClient) {
		t.Errorf("want %d completed jobs, got %d", len(pairs)+clients*perClient, got)
	}

	// Goroutine-leak check: the soak spun up thousands of simulated ranks;
	// every one of them must have exited. Poll with slack — rank goroutines
	// unwind asynchronously after Run returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak after concurrent soak: %d before, %d after\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Racing cold-start clients on one pair must plan once (single flight), not
// once per client.
func TestPlanCacheSingleFlight(t *testing.T) {
	a := genmat.ER(64, 6, 3)
	cfg := testConfig(t, a)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load("a", a); err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Plan("a", "a"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := s.Stats().Probes; got != 1 {
		t.Fatalf("%d cold clients should share one probe, got %d", clients, got)
	}
}

// A planning function that panics must not wedge its key: the owning flight
// drops the entry and releases its waiters before the panic reaches its own
// caller, so a request that was waiting, and every later one, plans afresh
// and returns — and no goroutine stays blocked on the dead flight.
func TestPlanCachePanicDoesNotWedgeKey(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	pc := NewPlanCache()
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		pc.PlanThrough("k", func() (planner.Choice, error) {
			<-release
			panic("planner bug")
		})
	}()
	for pc.Len() == 0 { // the panicking flight owns the key
		time.Sleep(time.Millisecond)
	}
	good := planner.Choice{L: 4, B: 1, Format: "csc", SparseComm: "off"}
	type outcome struct {
		choice planner.Choice
		hit    bool
		err    error
	}
	waiter := make(chan outcome, 1)
	go func() {
		c, hit, err := pc.PlanThrough("k", func() (planner.Choice, error) { return good, nil })
		waiter <- outcome{c, hit, err}
	}()
	// Give the waiter time to park on the flight. Either way — parked, or
	// arriving after the cleanup — it must end up with its own fresh plan.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if r := <-panicked; r != "planner bug" {
		t.Fatalf("the owning caller recovered %v, want the plan's panic", r)
	}
	select {
	case o := <-waiter:
		if o.err != nil || o.hit || o.choice != good {
			t.Fatalf("waiter after the panic: choice %+v, hit %v, err %v; want its own fresh plan", o.choice, o.hit, o.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a request for the key is still blocked 2 s after its plan panicked")
	}
	if c, hit, err := pc.PlanThrough("k", func() (planner.Choice, error) {
		t.Error("planned again after a good plan was cached")
		return planner.Choice{}, nil
	}); err != nil || !hit || c != good {
		t.Fatalf("after recovery: choice %+v, hit %v, err %v; want a hit on the fresh plan", c, hit, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The registry must be idempotent on identical content and refuse different
// content under a taken name.
func TestRegistrySemantics(t *testing.T) {
	r := NewRegistry()
	a := genmat.ER(32, 4, 1)
	fp, already, err := r.Load("a", a)
	if err != nil || already {
		t.Fatalf("first load: already=%v err=%v", already, err)
	}
	fp2, already, err := r.Load("a", a.CloneMat().ToCSC())
	if err != nil || !already {
		t.Fatalf("idempotent reload: already=%v err=%v", already, err)
	}
	if !fp.ContentEqual(fp2) {
		t.Fatalf("reload changed the fingerprint")
	}
	if _, _, err := r.Load("a", genmat.ER(32, 4, 2)); err == nil {
		t.Fatalf("different content under a taken name must conflict")
	}
	if _, _, err := r.Load("", a); err == nil {
		t.Fatalf("empty name must be rejected")
	}
}

// CacheKey must separate operands, budgets, machines and the symbolic pass.
func TestCacheKeyDiscriminates(t *testing.T) {
	a := genmat.ER(32, 4, 1)
	b := genmat.ER(32, 4, 2)
	fa, fb := spmat.FingerprintOf(a).Key(), spmat.FingerprintOf(b).Key()
	base := planner.Input{P: 16, MemBytes: 1 << 20, Machine: costmodel.CoriKNL()}
	k1 := planner.CacheKey(fa, fa, base)
	if k2 := planner.CacheKey(fa, fb, base); k1 == k2 {
		t.Fatalf("different operands must key differently")
	}
	other := base
	other.MemBytes = 1 << 21
	if k2 := planner.CacheKey(fa, fa, other); k1 == k2 {
		t.Fatalf("different budgets must key differently")
	}
	hw := base
	hw.Machine = costmodel.CoriHaswell()
	if k2 := planner.CacheKey(fa, fa, hw); k1 == k2 {
		t.Fatalf("different machines must key differently")
	}
	sym := base
	sym.Symbolic = true
	if k2 := planner.CacheKey(fa, fa, sym); k1 == k2 {
		t.Fatalf("the symbolic pass must key differently")
	}
}

// waitQueued spins until n jobs are parked in the scheduler's wait queue.
func waitQueued(s *Scheduler, n int) {
	for {
		s.mu.Lock()
		q := s.queued
		s.mu.Unlock()
		if q >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// The scheduler must admit FIFO under the budget, queue what doesn't fit,
// and admit an over-budget job only alone.
func TestSchedulerAdmission(t *testing.T) {
	s := NewScheduler(100)

	// Two 40s fit together; a third waits until one releases.
	rel1, q1 := s.Acquire(40)
	rel2, q2 := s.Acquire(40)
	if q1 || q2 {
		t.Fatalf("jobs within budget must not queue")
	}
	done3 := make(chan bool, 1)
	go func() {
		rel3, q3 := s.Acquire(40)
		done3 <- q3
		rel3()
	}()
	// Wait until the third job is really parked in the queue before checking
	// it was not admitted.
	waitQueued(s, 1)
	select {
	case <-done3:
		t.Fatalf("third 40 admitted while 80/100 used")
	default:
	}
	rel1()
	if q3 := <-done3; !q3 {
		t.Fatalf("third job should have reported queuing")
	}
	rel2()

	// An oversized job (reservation > whole budget) runs alone.
	relBig, _ := s.Acquire(1000)
	doneSmall := make(chan struct{})
	go func() {
		relS, _ := s.Acquire(10)
		relS()
		close(doneSmall)
	}()
	waitQueued(s, 1)
	select {
	case <-doneSmall:
		t.Fatalf("small job admitted while oversized job holds the machine")
	default:
	}
	relBig()
	<-doneSmall

	if s.PeakQueued() == 0 {
		t.Fatalf("queue depth should have been recorded")
	}

	// Budget 0 = unconstrained.
	u := NewScheduler(0)
	rel, q := u.Acquire(1 << 40)
	if q {
		t.Fatalf("unconstrained scheduler must never queue")
	}
	rel()
}

// Semiring names flow through to the engine.
func TestMultiplySemiring(t *testing.T) {
	a := genmat.ER(64, 6, 5)
	cfg := testConfig(t, a)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load("a", a); err != nil {
		t.Fatal(err)
	}
	_, c := product(t, s, MultiplyRequest{A: "a", B: "a", Semiring: "bool-or-and"})
	for _, v := range c.Val {
		if v != 0 && v != 1 {
			t.Fatalf("bool-or-and output must be 0/1-valued, got %g", v)
		}
	}
	if _, err := s.Multiply(MultiplyRequest{A: "a", B: "a", Semiring: "nope"}); err == nil {
		t.Fatalf("unknown semiring must error")
	}
}
