package mpi

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/obs"
)

// computeGate deals the host's cores out to the compute sections of one Run.
//
// What the tokens are. The gate holds runtime.GOMAXPROCS(0) cores, read when
// the Run starts: one per goroutine the Go scheduler can execute at once. A
// compute section (Comm.MeasureCompute) holds one core per goroutine it runs
// on, so at most GOMAXPROCS compute goroutines of a world are ever runnable
// and none of them is time-shared with another. That is the property the gate
// exists for: hundreds of rank goroutines time-sharing a few cores would
// inflate every measured kernel time by scheduler contention and destroy the
// strong-scaling shapes (per-rank compute must shrink as p grows). Waiting for
// a core is excluded from the measured time. The per-thread CPU clock would be
// the ideal measurement, but its resolution is the scheduler tick (10 ms on
// typical VMs) — far too coarse for microsecond kernels. Ranks computing side
// by side still share the memory system, so a measured second on a busy host
// is somewhat longer than on an idle one; under GOMAXPROCS=1 the gate holds
// one core and ranks take strict turns.
//
// Ranks first. A section blocks for its first core only. A kernel inside it
// that could use more workers (Options.Threads in core) asks when it is about
// to start them (Comm.Workers) and takes further cores only if they are free
// at that moment and no rank is blocked for its first — never waiting for
// one. So cores go to ranks before they go to a rank's extra workers, and a
// job with more ranks than cores — every job at the paper's scale — runs one
// goroutine per section.
//
// A grant, not a demand, taken late. The kernel is told how many cores the
// section holds and runs that many workers, so the thread count a caller
// configures is a ceiling. Blocking for the full count instead would idle
// cores while the last holder finishes (and deadlock outright when the count
// exceeds the capacity); running the configured workers regardless would
// oversubscribe the host and void the property above. And the cores are taken
// when the kernel knows its work, not when the section starts: the first rank
// out of a barrier finds every core idle, and one that took them on entry
// would hold them through a call too small to start a worker while the next
// rank waits (measured: 5 % of a 16-rank job on two cores). Outputs, work
// units and every modeled number are independent of the worker count, so the
// grant changes wall-clock only.
//
// Per world, not package-global: a long-running service executes independent
// multiply jobs concurrently, and a shared gate would make one job's measured
// times depend on another job's schedule. Each World has its own gate, reset
// at the start of every run; Split children share their world's.
type computeGate struct {
	mu sync.Mutex
	// freed is signalled once per core returned.
	freed sync.Cond
	// free counts the cores no section holds; waiting, the sections blocked
	// for their first.
	free, waiting int
}

func newComputeGate() *computeGate {
	g := &computeGate{free: runtime.GOMAXPROCS(0)}
	g.freed.L = &g.mu
	return g
}

// reset deals the gate out afresh for a world's next run: every core idle,
// as many as GOMAXPROCS is now. A run that ended clean holds none.
func (g *computeGate) reset() {
	g.mu.Lock()
	g.free, g.waiting = runtime.GOMAXPROCS(0), 0
	g.mu.Unlock()
}

// acquire blocks until the caller holds one core.
func (g *computeGate) acquire() {
	g.mu.Lock()
	g.waiting++
	for g.free == 0 {
		g.freed.Wait()
	}
	g.waiting--
	g.free--
	g.mu.Unlock()
}

// tryAcquire takes up to n further cores for a section that holds one — as
// many as are free, none while a rank waits for its first — and returns how
// many it took. It never blocks.
func (g *computeGate) tryAcquire(n int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waiting > 0 {
		return 0
	}
	n = min(n, g.free)
	g.free -= n
	return n
}

// release returns n cores.
func (g *computeGate) release(n int) {
	g.mu.Lock()
	g.free += n
	g.mu.Unlock()
	for ; n > 0; n-- {
		g.freed.Signal()
	}
}

// Meter accumulates, per rank, the communication volume and modeled time of
// collectives plus measured local-compute time, broken down by caller-chosen
// category (the paper's step names: "A-Broadcast", "Local-Multiply", ...).
// A Meter belongs to one rank's goroutine and is not thread-safe.
type Meter struct {
	cat   string
	stats map[string]*StepStats
	// rec, when non-nil, receives one obs span per charge, recorded with the
	// exact value each accumulator was incremented by (the trace↔meter
	// identity). The nil recorder's methods are no-ops, so every charge path
	// calls it unconditionally with zero extra allocations when tracing is
	// off.
	rec *obs.RankRecorder
	// spare holds the zeroed stats of categories an earlier run of the
	// meter's world charged, for get to hand out again (reset).
	spare []*StepStats
}

// StepStats is the per-category accumulation.
type StepStats struct {
	// Messages and Bytes count the collectives this rank participated in and
	// the payload bytes attributed to it.
	Messages int64
	Bytes    int64
	// CommSeconds is the α–β modeled communication time this rank was
	// exposed to (blocked on).
	CommSeconds float64
	// HiddenSeconds is modeled communication time that overlapped with
	// measured compute (a pipelined schedule's BcastRequest.WaitOverlap
	// credit). It is excluded from Total and from critical-path sums —
	// hidden time is by definition concurrent with compute already counted
	// there — but kept per category so overlap stays auditable.
	HiddenSeconds float64
	// ComputeSeconds is measured wall time of local computation.
	ComputeSeconds float64
	// WorkUnits counts the abstract work (flops for multiplies, nonzeros
	// for merges) behind ComputeSeconds. Summarize uses it to smooth
	// per-rank times: individual wall measurements of microsecond kernels
	// carry scheduler/GC outliers, so the aggregated per-rank compute time
	// is work × (globally measured seconds-per-work), which preserves real
	// load imbalance while suppressing measurement noise.
	WorkUnits int64
}

// Total returns exposed modeled comm plus measured compute seconds (hidden
// comm excluded; it overlapped the compute counted here).
func (s *StepStats) Total() float64 { return s.CommSeconds + s.ComputeSeconds }

// NewMeter returns an empty meter with the category set to "default".
func NewMeter() *Meter {
	return &Meter{cat: "default", stats: make(map[string]*StepStats)}
}

// Recorder returns the attached span recorder. It is nil when tracing is
// off; the nil recorder's methods are no-ops, so callers (schedule label and
// channel-tag sites) use the result unconditionally.
func (m *Meter) Recorder() *obs.RankRecorder { return m.rec }

// SetCategory directs subsequent charges to the named step.
func (m *Meter) SetCategory(cat string) { m.cat = cat }

func (m *Meter) get(cat string) *StepStats {
	s, ok := m.stats[cat]
	if !ok {
		if n := len(m.spare); n > 0 {
			s, m.spare = m.spare[n-1], m.spare[:n-1]
		} else {
			s = &StepStats{}
		}
		m.stats[cat] = s
	}
	return s
}

// reset makes m a fresh meter again for its world's next run — no category
// charged, "default" current, rec attached — keeping the charged categories'
// stats, zeroed, for the next charges to reuse.
func (m *Meter) reset(rec *obs.RankRecorder) {
	for _, s := range m.stats {
		*s = StepStats{}
		m.spare = append(m.spare, s)
	}
	clear(m.stats)
	m.cat = "default"
	m.rec = rec
}

func (m *Meter) addComm(msgs, bytes int64, seconds float64) {
	s := m.get(m.cat)
	s.Messages += msgs
	s.Bytes += bytes
	s.CommSeconds += seconds
	m.rec.Record(m.cat, obs.KindComm, seconds, msgs, bytes, 0)
}

// addHidden charges modeled communication time that overlapped with compute
// to cat's HiddenSeconds (the split collectives' WaitOverlap attribution)
// and records the matching hidden span.
func (m *Meter) addHidden(cat string, seconds float64) {
	m.get(cat).HiddenSeconds += seconds
	m.rec.Record(cat, obs.KindHidden, seconds, 0, 0, 0)
}

// AddComputeWork charges measured compute seconds together with the abstract
// work units behind them (see StepStats.WorkUnits).
func (m *Meter) AddComputeWork(seconds float64, work int64) {
	s := m.get(m.cat)
	s.ComputeSeconds += seconds
	s.WorkUnits += work
	m.rec.Record(m.cat, obs.KindCompute, seconds, 0, 0, work)
}

// Step returns the stats accumulated for one category (zero stats if never
// charged).
func (m *Meter) Step(cat string) StepStats {
	if s, ok := m.stats[cat]; ok {
		return *s
	}
	return StepStats{}
}

// Categories returns the step names charged so far, sorted.
func (m *Meter) Categories() []string {
	out := make([]string, 0, len(m.stats))
	for k := range m.stats {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Summary aggregates the meters of all ranks into the numbers the paper
// plots: per step, the maximum over ranks (critical path) of comm and compute
// time, and the total bytes moved.
type Summary struct {
	// Steps maps category → aggregated stats where times are max-over-ranks
	// and Bytes/Messages are summed over ranks.
	Steps map[string]*StepStats
	// CriticalPathSeconds is max over ranks of the per-rank total.
	CriticalPathSeconds float64
	// Ranks is the number of meters aggregated.
	Ranks int
	// RankComputeSeconds is the sum over ranks and steps of compute seconds
	// as metered, neither smoothed nor reduced to a maximum. Divided by the
	// run's wall time it is the mean number of ranks computing at once — the
	// cores the job kept busy, short of the extra workers a section was
	// granted.
	RankComputeSeconds float64
}

// Summarize combines per-rank meters into a Summary.
//
// Compute smoothing: for every category that carries work units, the
// measured rate is computed globally (Σ seconds / Σ work over all ranks, so
// per-call scheduler and GC outliers amortize away) and each rank's compute
// time is re-attributed as its own work × that rate. The per-step maximum
// then reflects genuine load imbalance rather than which rank happened to be
// preempted. Categories without work units use raw measured maxima.
func Summarize(meters []*Meter) *Summary {
	sum := &Summary{Steps: make(map[string]*StepStats), Ranks: len(meters)}
	// Pass 1: global totals per category.
	type totals struct {
		sec  float64
		work int64
	}
	global := map[string]*totals{}
	for _, m := range meters {
		for cat, s := range m.stats {
			g, ok := global[cat]
			if !ok {
				g = &totals{}
				global[cat] = g
			}
			g.sec += s.ComputeSeconds
			g.work += s.WorkUnits
			sum.RankComputeSeconds += s.ComputeSeconds
		}
	}
	smoothed := func(cat string, s *StepStats) float64 {
		g := global[cat]
		if g.work <= 0 || s.WorkUnits <= 0 {
			return s.ComputeSeconds
		}
		return float64(s.WorkUnits) * g.sec / float64(g.work)
	}
	// Pass 2: aggregate with smoothing.
	for _, m := range meters {
		var rankTotal float64
		for cat, s := range m.stats {
			agg, ok := sum.Steps[cat]
			if !ok {
				agg = &StepStats{}
				sum.Steps[cat] = agg
			}
			agg.Messages += s.Messages
			agg.Bytes += s.Bytes
			agg.WorkUnits += s.WorkUnits
			if s.CommSeconds > agg.CommSeconds {
				agg.CommSeconds = s.CommSeconds
			}
			if s.HiddenSeconds > agg.HiddenSeconds {
				agg.HiddenSeconds = s.HiddenSeconds
			}
			sc := smoothed(cat, s)
			if sc > agg.ComputeSeconds {
				agg.ComputeSeconds = sc
			}
			rankTotal += s.CommSeconds + sc
		}
		if rankTotal > sum.CriticalPathSeconds {
			sum.CriticalPathSeconds = rankTotal
		}
	}
	return sum
}

// Step returns the aggregated stats for one category.
func (s *Summary) Step(cat string) StepStats {
	if st, ok := s.Steps[cat]; ok {
		return *st
	}
	return StepStats{}
}

// Categories returns the aggregated step names, sorted.
func (s *Summary) Categories() []string {
	out := make([]string, 0, len(s.Steps))
	for k := range s.Steps {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TotalCommSeconds sums the per-step max comm times.
func (s *Summary) TotalCommSeconds() float64 {
	var t float64
	for _, st := range s.Steps {
		t += st.CommSeconds
	}
	return t
}

// TotalComputeSeconds sums the per-step max compute times.
func (s *Summary) TotalComputeSeconds() float64 {
	var t float64
	for _, st := range s.Steps {
		t += st.ComputeSeconds
	}
	return t
}

// TotalSeconds sums per-step totals (the height of one stacked bar in the
// paper's figures).
func (s *Summary) TotalSeconds() float64 {
	return s.TotalCommSeconds() + s.TotalComputeSeconds()
}
