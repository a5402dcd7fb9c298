package mpi

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Payload is anything that knows its wire size; matrices implement it via
// CommBytes. Payload contents are shared between sender and receivers, so
// receivers must treat them as read-only or clone.
type Payload interface {
	CommBytes() int64
}

// Bytes adapts a raw byte count to Payload for non-matrix messages.
type Bytes int64

// CommBytes returns the wrapped size.
func (b Bytes) CommBytes() int64 { return int64(b) }

// CostModel supplies the α–β constants used to charge modeled time.
type CostModel struct {
	// AlphaSec is the per-message latency in seconds.
	AlphaSec float64
	// BetaSecPerByte is the inverse bandwidth in seconds per byte.
	BetaSecPerByte float64
}

// lg2 returns ceil(log2(q)) for q ≥ 1.
func lg2(q int) float64 {
	n, v := 0, 1
	for v < q {
		v <<= 1
		n++
	}
	return float64(n)
}

// BcastCost models a bandwidth-optimal broadcast of n bytes among q ranks:
// α·lg q latency plus β·n bandwidth, the form used in the paper's Table II.
func (cm CostModel) BcastCost(q int, n int64) float64 {
	if q <= 1 {
		return 0
	}
	return cm.AlphaSec*lg2(q) + cm.BetaSecPerByte*float64(n)
}

// AllToAllCost models a personalized all-to-all among q ranks where the
// calling rank sends n bytes in total: α·(q−1) + β·n.
func (cm CostModel) AllToAllCost(q int, n int64) float64 {
	if q <= 1 {
		return 0
	}
	return cm.AlphaSec*float64(q-1) + cm.BetaSecPerByte*float64(n)
}

// AllreduceCost models an allreduce of n bytes among q ranks.
func (cm CostModel) AllreduceCost(q int, n int64) float64 {
	if q <= 1 {
		return 0
	}
	return cm.AlphaSec*lg2(q) + cm.BetaSecPerByte*float64(n)*lg2(q)
}

// barrier is a reusable (cyclic) barrier with failure propagation: when any
// rank panics, waiting ranks are woken and panic too instead of deadlocking.
type barrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	count  int
	gen    uint64
	failed bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failed {
		panic(errAborted)
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen && !b.failed {
		b.cond.Wait()
	}
	if b.failed {
		panic(errAborted)
	}
}

func (b *barrier) fail() {
	b.mu.Lock()
	b.failed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// errAborted is the sentinel re-panicked on ranks that were waiting when a
// peer failed; Run filters it out so the original failure surfaces.
var errAborted = fmt.Errorf("mpi: aborted because another rank failed")

// commCore is the state shared by all ranks of one communicator.
type commCore struct {
	size  int
	bar   *barrier
	slots []any // one per rank: Bcast/Allgather/Split staging
	// matrix is the size×size AllToAllv staging area, row-major
	// [src*size+dst]. It is allocated lazily (matrixOnce) because large
	// world communicators never perform an AllToAll — only the small fiber
	// communicators do — and an eager p² allocation would dominate memory
	// at high simulated rank counts.
	matrix     []any
	matrixOnce sync.Once
	i64buf     []int64
	childMu    sync.Mutex
	childs     map[splitKey]*commCore
}

type splitKey struct {
	gen   uint64
	color int
}

func newCommCore(size int) *commCore {
	return &commCore{
		size:   size,
		bar:    newBarrier(size),
		slots:  make([]any, size),
		i64buf: make([]int64, size),
		childs: make(map[splitKey]*commCore),
	}
}

// fail aborts this communicator and every communicator split from it: a rank
// waiting in any of their barriers wakes and panics with errAborted. A child
// split after the abort is never waited on: Split's closing barrier on the
// parent panics first.
func (c *commCore) fail() {
	c.bar.fail()
	c.childMu.Lock()
	defer c.childMu.Unlock()
	for _, child := range c.childs {
		child.fail()
	}
}

// ensureMatrix allocates the AllToAllv staging area on first use. All ranks
// reach AllToAllv collectively, and sync.Once publishes the slice safely.
func (c *commCore) ensureMatrix() {
	c.matrixOnce.Do(func() {
		c.matrix = make([]any, c.size*c.size)
	})
}

// Comm is one rank's handle on a communicator.
type Comm struct {
	rank  int
	size  int
	core  *commCore
	cost  CostModel
	meter *Meter
	// splitGen counts Split calls so concurrent epochs of the deterministic
	// child-core map never collide. All ranks call Split in the same order,
	// so their counters agree.
	splitGen uint64
	// pending counts this rank's posted-but-uncompleted split-collective
	// requests. It is shared with every communicator derived via Split (a
	// request leaked on a child drops modeled cost from the same meter) and
	// audited by Run after the ranks stop.
	pending *int64
	// pool recycles request structs, receive slices, and wire buffers; one
	// per Comm handle, touched only by the owning rank's goroutine.
	pool *commPool
	// gate deals the host's cores to this world's compute sections (see
	// meter.go). All communicators derived from one Run share their world's
	// gate; concurrent runs are not coupled. cores is how many this rank's
	// running section holds (0 outside one), shared by every communicator the
	// rank derives via Split.
	gate  *computeGate
	cores *int
}

// MeasureCompute runs fn as one compute section of this run and returns fn's
// wall time. The section waits for one of the host's cores (see computeGate);
// the wait is excluded from the returned time. Kernels in fn that can run
// several workers ask Workers for the cores to run them on. Every core the
// section holds is returned when fn ends, by panic included. fn must not
// perform collectives: a rank blocked in a barrier while holding cores would
// starve the ranks it is waiting for. The cores belong to the world this
// communicator descends from, so one run's measured times do not depend on
// another's schedule.
func (c *Comm) MeasureCompute(fn func()) float64 {
	c.gate.acquire()
	*c.cores = 1
	defer func() {
		c.gate.release(*c.cores)
		*c.cores = 0
	}()
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// Workers is called inside a compute section by a kernel about to start want
// worker goroutines, and returns how many it may start: the section takes the
// cores it is short of, as many as are idle at that moment and none while a
// rank waits for its first, and never blocks for them. The result is at least
// 1 — the core the section runs on — and at most want.
func (c *Comm) Workers(want int) int {
	if *c.cores == 0 {
		panic("mpi: Workers called outside a compute section")
	}
	if want > *c.cores {
		*c.cores += c.gate.tryAcquire(want - *c.cores)
	}
	return max(1, min(want, *c.cores))
}

// Rank returns this rank's id within the communicator (0-based).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// Meter returns the per-rank meter charged by every collective.
func (c *Comm) Meter() *Meter { return c.meter }

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() { c.core.bar.await() }

// Bcast broadcasts root's payload to every rank and returns it. All ranks
// (including root) receive the same object; treat it as read-only. The
// modeled cost α·lg(size) + β·bytes is charged to every rank. It is exactly
// the split broadcast completed immediately.
func (c *Comm) Bcast(root int, msg Payload) Payload {
	return c.IbcastStart(root, msg).Wait()
}

// Allgather collects one payload from every rank; the result is indexed by
// rank and shared by all ranks (read-only).
func (c *Comm) Allgather(msg Payload) []Payload {
	c.core.slots[c.rank] = msg
	c.Barrier()
	out := make([]Payload, c.size)
	var total int64
	for i := range out {
		out[i], _ = c.core.slots[i].(Payload)
		if out[i] != nil {
			total += out[i].CommBytes()
		}
	}
	c.Barrier()
	// Model as a bandwidth-optimal allgather: α·lg q + β·(total received).
	c.meter.addComm(1, total, c.cost.AllreduceCost(c.size, 0)+c.cost.BetaSecPerByte*float64(total))
	return out
}

// AllToAllv performs a personalized exchange: send[i] goes to rank i, and the
// returned slice holds what every rank sent to this rank (indexed by source).
// It is exactly the split exchange completed immediately — one copy of the
// data movement and cost logic, shared with the overlapped schedule.
func (c *Comm) AllToAllv(send []Payload) []Payload {
	return c.IalltoallvStart(send).Wait()
}

// ReduceOp is a binary reduction operator.
type ReduceOp int

// Reduction operators for Allreduce.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// AllreduceInt64 reduces one int64 per rank with op and returns the result on
// every rank.
func (c *Comm) AllreduceInt64(v int64, op ReduceOp) int64 {
	c.core.i64buf[c.rank] = v
	c.Barrier()
	out := c.core.i64buf[0]
	for _, x := range c.core.i64buf[1:c.size] {
		switch op {
		case OpSum:
			out += x
		case OpMax:
			if x > out {
				out = x
			}
		case OpMin:
			if x < out {
				out = x
			}
		}
	}
	c.Barrier()
	c.meter.addComm(1, 8, c.cost.AllreduceCost(c.size, 8))
	return out
}

// Split partitions the communicator like MPI_Comm_split: ranks passing the
// same color form a new communicator, ordered by (key, parent rank). Every
// rank must call Split. The child shares this rank's meter and cost model.
func (c *Comm) Split(color, key int) *Comm {
	gen := c.splitGen
	c.splitGen++
	// Stage everyone's (color, key) in the Bcast slots; collectives are
	// bulk-synchronous, so no other use of slots can be in flight.
	c.core.slots[c.rank] = [2]int{color, key}
	c.Barrier()
	type member struct{ rank, key int }
	var members []member
	for r := 0; r < c.size; r++ {
		ck := c.core.slots[r].([2]int)
		if ck[0] == color {
			members = append(members, member{rank: r, key: ck[1]})
		}
	}
	// Deterministic ordering by (key, rank).
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && (members[j].key < members[j-1].key ||
			(members[j].key == members[j-1].key && members[j].rank < members[j-1].rank)); j-- {
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	myIdx := -1
	for i, m := range members {
		if m.rank == c.rank {
			myIdx = i
		}
	}
	k := splitKey{gen: gen, color: color}
	c.core.childMu.Lock()
	core, ok := c.core.childs[k]
	if !ok {
		core = newCommCore(len(members))
		c.core.childs[k] = core
	}
	c.core.childMu.Unlock()
	c.Barrier() // staging area reusable afterwards
	return &Comm{
		rank: myIdx, size: len(members), core: core, cost: c.cost, meter: c.meter,
		pending: c.pending, pool: &commPool{}, gate: c.gate,
	}
}

// Run executes fn on p ranks of a fresh world communicator sharing the given
// cost model, and returns each rank's meter. If any rank panics, the ranks
// waiting in a collective of the world or of any communicator split from it
// are woken, and Run panics with the first failure after all ranks have
// stopped.
func Run(p int, cm CostModel, fn func(c *Comm)) []*Meter {
	return RunTraced(p, cm, nil, fn)
}

// RunTraced is Run with a span recorder attached: when rec is non-nil, every
// rank's meter records one obs span per metered interval (rec.Rank(r) feeds
// rank r), exportable afterwards as a Chrome/Perfetto trace. A nil rec is
// exactly Run — tracing off, zero extra allocations on the charge paths.
func RunTraced(p int, cm CostModel, rec *obs.Recorder, fn func(c *Comm)) []*Meter {
	if p <= 0 {
		panic(fmt.Sprintf("mpi: Run with %d ranks", p))
	}
	core := newCommCore(p)
	meters := make([]*Meter, p)
	errs := make([]any, p)
	pendings := make([]int64, p)
	cores := make([]int, p)
	gate := newComputeGate()
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		meters[r] = NewMeter()
		meters[r].SetRecorder(rec.Rank(r))
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					errs[r] = e
					core.fail()
				}
			}()
			fn(&Comm{
				rank: r, size: p, core: core, cost: cm, meter: meters[r],
				pending: &pendings[r], pool: &commPool{}, gate: gate, cores: &cores[r],
			})
		}(r)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil && e != errAborted {
			panic(e)
		}
	}
	for _, e := range errs {
		if e != nil {
			panic(e)
		}
	}
	// No rank failed: audit the split-collective requests. A request posted
	// but never completed silently dropped its modeled cost from the meters,
	// which is a bug in the caller's schedule — fail loudly instead of
	// returning quietly wrong numbers.
	for r := range pendings {
		if pendings[r] != 0 {
			panic(fmt.Sprintf("mpi: rank %d leaked %d uncompleted request(s): a posted Ibcast/Ialltoallv was never Waited", r, pendings[r]))
		}
	}
	return meters
}
