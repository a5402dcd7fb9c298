package service

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/spmat"
)

// splitKey names one dealt form of a resident matrix. The service runs every
// job on the same rank count, so the layer count fixes the grid.
type splitKey struct {
	role   core.Role
	l      int
	format spmat.Format
}

// splitSet is one resident matrix dealt out for one key. It is published
// before it is dealt, so a job that asks for it meanwhile waits on done
// instead of dealing it again.
type splitSet struct {
	owner *resident
	key   splitKey
	done  chan struct{}
	dealt *core.Dealt
	bytes int64
	err   error
	// elem is the set's place in the cache's recency list; nil until the
	// set is dealt and counted.
	elem *list.Element
}

// splitCache keeps the resident matrices' dealt-out blocks (core.Dealt)
// beside them, each resident's sets in its splits map, so a job whose
// operands were dealt for its grid and format before runs on those blocks
// instead of splitting the operands again. What the sets hold is bounded: the
// sum of their blocks' modeled bytes (spmat.BlockMemBytes at
// spmat.BytesPerNonzero) stays within limit, the least recently used set
// making way for a new one, and a set that alone exceeds limit is dealt for
// the job that asked and not kept. A job holds the Dealt it was handed, so
// dropping a set never changes what a running job reads. Like the plan cache
// it is single-flight: jobs that miss one key together deal it once.
type splitCache struct {
	limit int64

	mu        sync.Mutex // guards everything below and every resident's splits
	lru       list.List  // *splitSet, most recently used at the front
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
}

// deal returns r dealt out for role on rc's grid in rc's format, from the
// cache when it is there.
func (c *splitCache) deal(r *resident, role core.Role, rc core.RunConfig) (*core.Dealt, error) {
	key := splitKey{role: role, l: rc.L, format: rc.Opts.Format}
	c.mu.Lock()
	if s, ok := r.splits[key]; ok {
		if s.elem != nil {
			c.lru.MoveToFront(s.elem)
		}
		c.hits++
		c.mu.Unlock()
		<-s.done
		if s.err != nil {
			// The flight that owned the set failed and removed it: deal afresh.
			return c.deal(r, role, rc)
		}
		return s.dealt, nil
	}
	// As in PlanCache.PlanThrough, the set starts out failed and the cleanup is
	// deferred, so a deal that panics still unpublishes the set and wakes its
	// waiters.
	s := &splitSet{owner: r, key: key, done: make(chan struct{}), err: errDealPanicked}
	r.splits[key] = s
	c.misses++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.keep(s)
		c.mu.Unlock()
		close(s.done)
	}()
	s.dealt, s.err = core.Deal(r.mat, role, rc)
	if s.err == nil {
		for _, b := range s.dealt.Blocks() {
			s.bytes += spmat.BlockMemBytes(b, spmat.BytesPerNonzero)
		}
	}
	return s.dealt, s.err
}

var errDealPanicked = errors.New("service: dealing an operand out panicked")

// keep counts a finished set into the cache, evicting the least recently
// used sets until the total fits the limit again, or unpublishes it when it
// failed or alone exceeds the limit. c.mu is held.
func (c *splitCache) keep(s *splitSet) {
	if s.err != nil || s.bytes > c.limit {
		delete(s.owner.splits, s.key)
		return
	}
	s.elem = c.lru.PushFront(s)
	c.bytes += s.bytes
	for c.bytes > c.limit {
		old := c.lru.Remove(c.lru.Back()).(*splitSet)
		delete(old.owner.splits, old.key)
		c.bytes -= old.bytes
		c.evictions++
	}
}

// snapshot returns the cache's size and counters.
func (c *splitCache) snapshot() (bytes int64, entries int, hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, c.lru.Len(), c.hits, c.misses, c.evictions
}
