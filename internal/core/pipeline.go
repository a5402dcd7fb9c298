package core

import (
	"cmp"
	"slices"

	"repro/internal/localmm"
	"repro/internal/mpi"
)

// overlapLedger is the per-rank accounting that decides how much modeled
// communication the split collectives may hide behind measured compute. It
// generalizes the per-stage credit pool of the within-batch pipeline to the
// full schedule: requests are posted at arbitrary points (the next stage, the
// next batch's first stage, the fiber exchange) and each compute second can
// hide at most k requests' communication — one per modeled NIC channel
// (Options.Channels; the k = 1 default is the paper's single-injection
// model).
//
// clock is the cumulative measured compute time of this rank; claimed[ch] is
// the set of disjoint clock intervals channel ch has already consumed as
// hiding credit. A request posted when the clock read post may, at wait time,
// hide up to the unclaimed measure of [post, clock) on its best channel: only
// compute that ran after the post and was not already claimed on that channel
// counts. Claims go to the channel with the most unclaimed credit in the
// window (lowest index on ties) and consume the earliest unclaimed compute
// first, so a request completed out of posting order (the fiber exchange
// waits before the prefetched next batch's broadcasts) never swallows the
// window of an earlier-posted request — interval accounting, not a single
// watermark, is what makes that hold. With posts and waits back to back (the
// staged schedule) the credit is always zero on every channel, so the ledger
// meters exactly like the blocking collectives. With k = 1 the accounting is
// bit-identical to the single-channel ledger of earlier releases.
type overlapLedger struct {
	clock float64
	// k is the channel count; 0 means 1. Set before the first claim.
	k       int
	claimed [][]span
}

// span is a half-open claimed interval [lo, hi) of the compute clock.
type span struct{ lo, hi float64 }

// channels returns the effective channel count (k = 0 means one).
func (l *overlapLedger) channels() int {
	if l.k < 1 {
		return 1
	}
	return l.k
}

// ensure sizes the per-channel claim lists.
func (l *overlapLedger) ensure() {
	if len(l.claimed) != l.channels() {
		l.claimed = make([][]span, l.channels())
	}
}

// advance records sec seconds of measured compute.
func (l *overlapLedger) advance(sec float64) { l.clock += sec }

// unclaimedIn returns the unclaimed compute seconds of [post, clock) on one
// channel's claim list.
func (l *overlapLedger) unclaimedIn(claimed []span, post float64) float64 {
	c := l.clock - post
	if c <= 0 {
		return 0
	}
	for _, s := range claimed {
		lo, hi := s.lo, s.hi
		if lo < post {
			lo = post
		}
		if hi > l.clock {
			hi = l.clock
		}
		if hi > lo {
			c -= hi - lo
		}
	}
	if c < 0 {
		return 0
	}
	return c
}

// creditSince returns the largest unclaimed compute credit in [post, clock)
// available on any channel.
func (l *overlapLedger) creditSince(post float64) float64 {
	l.ensure()
	best := 0.0
	for _, ch := range l.claimed {
		if c := l.unclaimedIn(ch, post); c > best {
			best = c
		}
	}
	return best
}

// claim consumes used seconds of unclaimed compute in [post, clock) on the
// channel with the most credit there (lowest index on ties), earliest first,
// so no other request can hide behind the same compute on the same channel.
// It returns the channel claimed, or -1 when nothing was consumed — the
// trace layer tags the just-recorded hidden span with it.
func (l *overlapLedger) claim(post, used float64) int {
	if used <= 0 {
		return -1
	}
	l.ensure()
	ch, best := 0, l.unclaimedIn(l.claimed[0], post)
	for i := 1; i < len(l.claimed); i++ {
		if c := l.unclaimedIn(l.claimed[i], post); c > best {
			ch, best = i, c
		}
	}
	l.claimed[ch] = l.claimOn(l.claimed[ch], post, used)
	return ch
}

// claimOn consumes used seconds on one channel's claim list and returns the
// updated list.
func (l *overlapLedger) claimOn(claimed []span, post, used float64) []span {
	// At most a span per claimed gap and one after them: room for a few on
	// the stack.
	var room [4]span
	add := room[:0]
	pos := post
	for _, s := range claimed {
		if used <= 0 || pos >= l.clock {
			break
		}
		if s.hi <= pos {
			continue
		}
		if gapEnd := min(s.lo, l.clock); gapEnd > pos {
			take := min(gapEnd-pos, used)
			add = append(add, span{pos, pos + take})
			used -= take
			pos += take
		}
		if s.hi > pos {
			pos = s.hi
		}
	}
	if used > 0 && pos < l.clock {
		take := min(l.clock-pos, used)
		add = append(add, span{pos, pos + take})
	}
	if len(add) == 0 {
		return claimed
	}
	claimed = append(claimed, add...)
	slices.SortFunc(claimed, func(x, y span) int { return cmp.Compare(x.lo, y.lo) })
	// Coalesce touching intervals so the list stays as short as the number of
	// genuinely distinct claim regions (usually one or two).
	merged := claimed[:1]
	for _, s := range claimed[1:] {
		if last := &merged[len(merged)-1]; s.lo <= last.hi {
			if s.hi > last.hi {
				last.hi = s.hi
			}
		} else {
			merged = append(merged, s)
		}
	}
	return merged
}

// rankRuntime is the per-rank execution state both engines share — Proc for
// the sparse pipeline, denseProc for the 1.5D schedules: the world
// communicator whose compute gate runs every measured section, the worker
// ceiling of the local kernels, and the overlap ledger the split collectives
// claim hiding credit from.
type rankRuntime struct {
	world   *mpi.Comm
	threads int
	ledger  overlapLedger
}

// measure runs fn as one compute section — on one of the host's cores, for
// which it waits (mpi.Comm.MeasureCompute) — and advances the overlap ledger
// by its wall time, so split collectives posted before fn can claim it as
// hiding credit. In the staged schedule the ledger advance is inert: posts and
// waits are adjacent, so no request ever has a nonzero window.
func (r *rankRuntime) measure(fn func()) float64 {
	sec := r.world.MeasureCompute(fn)
	r.ledger.advance(sec)
	return sec
}

// workers returns the worker count for a kernel call of the given work
// (flops, or merge input entries) inside the running compute section:
// threads at most, no more than the work pays for (localmm.Workers), and no
// more than the cores the section holds once it has taken what is idle
// (mpi.Comm.Workers — ranks waiting for a core come first).
func (r *rankRuntime) workers(work int64) int {
	return r.world.Workers(localmm.Workers(r.threads, work))
}

// waitBcast completes req, posted when the ledger clock read post: it
// charges the exposed share of its modeled cost to cat and the share the
// unclaimed compute measured since post hides to hidden, and tags the hidden
// span with the ledger channel that share claimed.
func (r *rankRuntime) waitBcast(req *mpi.BcastRequest, post float64, cat, hidden string) mpi.Payload {
	m := r.world.Meter()
	m.SetCategory(cat)
	pay, used := req.WaitOverlap(r.ledger.creditSince(post), hidden)
	m.Recorder().TagChannel(r.ledger.claim(post, used))
	return pay
}

// pipeState is one rank's cross-batch pipeline state, reset at the start of
// every BatchedSUMMA3D: the prefetched stage-0 broadcasts of the upcoming
// batch. The last SUMMA stage of batch t posts batch t+1's first A/B
// broadcasts (Opts.Pipeline) so their cost can hide behind everything that
// still runs in batch t — the final multiply, the merges, and the fiber
// exchange.
type pipeState struct {
	next    stageBcasts
	hasNext bool
}
