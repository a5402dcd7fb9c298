package service

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/planner"
)

// PlanCache memoizes planner decisions by cache key (planner.CacheKey). It
// gives single-flight semantics: when several requests race on a cold key,
// exactly one runs the planning function and the rest block until its
// result is published — so the probe and candidate sweep run at most once
// per key no matter the concurrency, and "zero misses after warmup" holds
// even under racing clients. A failed plan — one that errs or panics — is not
// cached; the next request retries.
type PlanCache struct {
	mu      sync.Mutex
	entries map[string]*planEntry
	hits    atomic.Int64
	misses  atomic.Int64
}

type planEntry struct {
	done   chan struct{}
	choice planner.Choice
	err    error
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: make(map[string]*planEntry)}
}

// PlanThrough returns the cached decision for key, or runs plan exactly once
// to produce it. hit reports whether the caller skipped the planning work
// (either the entry existed, or another in-flight caller was already
// computing it — both paid zero probe cost).
func (pc *PlanCache) PlanThrough(key string, plan func() (planner.Choice, error)) (choice planner.Choice, hit bool, err error) {
	pc.mu.Lock()
	if e, ok := pc.entries[key]; ok {
		pc.mu.Unlock()
		<-e.done
		if e.err != nil {
			// The flight that owned the entry failed and removed it; retry as
			// a fresh miss rather than surfacing a stale error.
			return pc.PlanThrough(key, plan)
		}
		pc.hits.Add(1)
		return e.choice, true, nil
	}
	// The entry starts out failed and the cleanup is deferred, so a plan that
	// panics still unpublishes its entry and wakes the waiters — who retry as
	// a fresh miss — before the panic goes on up this caller's stack. Without
	// it every later request for the key would block on done forever.
	e := &planEntry{done: make(chan struct{}), err: errPlanPanicked}
	pc.entries[key] = e
	pc.mu.Unlock()
	defer func() {
		if e.err != nil {
			pc.mu.Lock()
			delete(pc.entries, key)
			pc.mu.Unlock()
		}
		close(e.done)
		pc.misses.Add(1)
	}()
	e.choice, e.err = plan()
	return e.choice, false, e.err
}

var errPlanPanicked = errors.New("service: the planning function panicked")

// Hits returns the number of PlanThrough calls that skipped planning.
func (pc *PlanCache) Hits() int64 { return pc.hits.Load() }

// Misses returns the number of PlanThrough calls that ran the planner.
func (pc *PlanCache) Misses() int64 { return pc.misses.Load() }

// Len returns the number of cached decisions.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}
