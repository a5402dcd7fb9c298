// Package obs is the run-trace layer: a low-overhead per-rank span recorder
// that mpi.Meter feeds one span per metered interval — every exposed
// communication charge, every measured compute interval, and every hidden
// (overlapped) share a split collective credits — so a simulated run renders
// as a per-rank timeline instead of only per-step totals.
//
// The load-bearing invariant is trace↔meter identity: spans are recorded at
// the meter's charge points, in charge order, carrying the exact values the
// StepStats accumulators were incremented by. Summing a rank's spans per
// category in recording order therefore replays the identical sequence of
// float additions and reproduces every StepStats field exactly —
// CommSeconds, HiddenSeconds, ComputeSeconds, WorkUnits, Messages, Bytes.
//
// The disabled path costs nothing: a nil *RankRecorder is the off switch,
// every method is a nil-receiver no-op, and the metered hot paths perform
// zero additional allocations when tracing is off (guarded by
// TestTracingDisabledAddsZeroAllocations).
//
// Timeline model. Each rank carries a virtual clock that only its exposed
// intervals advance: exposed comm and compute spans are laid end to end in
// charge order, which is exactly the rank's critical-path accounting
// (StepStats.Total sums the same values). Hidden spans do not advance the
// clock; they anchor backwards over [clock-dur, clock), i.e. over the
// compute that was measured between the collective's post and its wait —
// the window whose unclaimed credit the overlap ledger granted. Durations
// mix modeled α–β communication seconds with measured wall-clock compute
// seconds, the same mix the meters accumulate.
//
// Export is Chrome trace-event JSON (WriteTrace): load the file in
// chrome://tracing or https://ui.perfetto.dev. Exposed spans live on pid 0
// with one thread per rank; hidden spans live on pid 1 (same tid) so their
// partial overlap with compute never breaks the viewer's nesting.
package obs

// Kind classifies a span's duration against the meter's StepStats fields.
type Kind uint8

const (
	// KindCompute is measured local compute (StepStats.ComputeSeconds).
	KindCompute Kind = iota
	// KindComm is exposed modeled communication (StepStats.CommSeconds).
	KindComm
	// KindHidden is modeled communication hidden behind measured compute
	// (StepStats.HiddenSeconds).
	KindHidden
)

// String names the kind as the trace export labels it.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindComm:
		return "comm"
	case KindHidden:
		return "hidden"
	}
	return "unknown"
}

// Span is one metered interval of one rank.
type Span struct {
	// Rank is the world rank the interval was charged to.
	Rank int
	// Cat is the meter category (the paper's step names: "A-Broadcast", ...).
	Cat string
	// Kind says which StepStats field Dur accumulated into.
	Kind Kind
	// Start and Dur place the interval on the rank's virtual timeline, in
	// seconds (see the package comment for the clock model).
	Start, Dur float64
	// Msgs, Bytes, Work carry the charge's volume terms: collective count and
	// payload bytes for comm spans, abstract work units for compute spans.
	Msgs, Bytes, Work int64
	// Batch, Stage, Channel locate the interval in the schedule: the batch
	// index of Alg 4's loop, the SUMMA stage (or 1.5D ring round), and the
	// overlap-ledger channel a hidden span's credit was claimed on. -1 means
	// outside that loop / not applicable.
	Batch, Stage, Channel int
}

// RankRecorder collects one rank's spans. It belongs to the rank's goroutine
// and is not thread-safe, like the Meter it shadows. The nil *RankRecorder
// is the disabled recorder: every method is a no-op, so metering code calls
// it unconditionally.
type RankRecorder struct {
	rank         int
	clock        float64
	batch, stage int
	spans        []Span
}

// Record appends one span: hidden spans anchor backwards over [clock-dur,
// clock) without advancing the clock; every other kind starts at the clock
// and advances it by dur.
func (r *RankRecorder) Record(cat string, kind Kind, dur float64, msgs, bytes, work int64) {
	if r == nil {
		return
	}
	sp := Span{
		Rank: r.rank, Cat: cat, Kind: kind, Dur: dur,
		Msgs: msgs, Bytes: bytes, Work: work,
		Batch: r.batch, Stage: r.stage, Channel: -1,
	}
	if kind == KindHidden {
		sp.Start = r.clock - dur
		if sp.Start < 0 {
			sp.Start = 0
		}
	} else {
		sp.Start = r.clock
		r.clock += dur
	}
	r.spans = append(r.spans, sp)
}

// SetBatch labels subsequent spans with the batch index (-1 = outside the
// batch loop).
func (r *RankRecorder) SetBatch(t int) {
	if r != nil {
		r.batch = t
	}
}

// SetStage labels subsequent spans with the stage / ring-round index (-1 =
// outside the stage loop).
func (r *RankRecorder) SetStage(s int) {
	if r != nil {
		r.stage = s
	}
}

// TagChannel annotates the most recent span with the overlap-ledger channel
// its hiding credit was claimed on. It applies only when that span is a
// hidden span (the claim immediately follows the WaitOverlap that recorded
// it); ch < 0 (no claim) is a no-op.
func (r *RankRecorder) TagChannel(ch int) {
	if r == nil || ch < 0 || len(r.spans) == 0 {
		return
	}
	if last := &r.spans[len(r.spans)-1]; last.Kind == KindHidden {
		last.Channel = ch
	}
}

// Spans returns the recorded spans in charge order. The slice is the
// recorder's own backing store; callers must not append to it.
func (r *RankRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Recorder is one run's trace: a RankRecorder per rank, attached by
// mpi.RunTraced. The nil *Recorder is the disabled recorder (Rank returns
// nil, which disables every per-rank method).
type Recorder struct {
	ranks []*RankRecorder
}

// NewRecorder returns a recorder for a p-rank run.
func NewRecorder(p int) *Recorder {
	r := &Recorder{ranks: make([]*RankRecorder, p)}
	for i := range r.ranks {
		r.ranks[i] = &RankRecorder{rank: i, batch: -1, stage: -1}
	}
	return r
}

// Rank returns rank i's recorder (nil for a nil or out-of-range receiver,
// which downstream treats as tracing off).
func (r *Recorder) Rank(i int) *RankRecorder {
	if r == nil || i < 0 || i >= len(r.ranks) {
		return nil
	}
	return r.ranks[i]
}

// Ranks returns the rank count the recorder was sized for.
func (r *Recorder) Ranks() int {
	if r == nil {
		return 0
	}
	return len(r.ranks)
}

// Spans returns every recorded span, ranks concatenated in order, each
// rank's spans in charge order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for _, rr := range r.ranks {
		out = append(out, rr.spans...)
	}
	return out
}
