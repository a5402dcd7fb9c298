package service

import (
	"sync"

	"repro/internal/core"
)

// worldPool keeps the simulated clusters of finished jobs for the next job
// on the same grid. p and the cost model are fixed per daemon, so a world is
// keyed by its layer count alone. A job takes an idle world, or builds one
// when none is idle, and gives it back once its run has ended; a world whose
// job failed is dropped, never kept. Concurrent jobs hold distinct worlds, so
// they still share no mutable engine state, and the number of worlds of one
// layer count — idle or running — never exceeds the most jobs that have run
// on it at once.
type worldPool struct {
	mu      sync.Mutex
	idle    map[int][]*core.World
	built   int64 // worlds built, over the daemon's life
	dropped int64 // worlds dropped after a failed job
}

// take returns an idle world for rc's grid, or a new one.
func (wp *worldPool) take(rc core.RunConfig) (*core.World, error) {
	wp.mu.Lock()
	if ws := wp.idle[rc.L]; len(ws) > 0 {
		w := ws[len(ws)-1]
		wp.idle[rc.L] = ws[:len(ws)-1]
		wp.mu.Unlock()
		return w, nil
	}
	wp.mu.Unlock()
	w, err := core.NewWorld(rc)
	if err == nil {
		wp.mu.Lock()
		wp.built++
		wp.mu.Unlock()
	}
	return w, err
}

// give returns w, taken for rc's grid, once its job has ended: kept idle if
// the job succeeded, dropped if it failed.
func (wp *worldPool) give(w *core.World, rc core.RunConfig, failed bool) {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if failed {
		wp.dropped++
		return
	}
	if wp.idle == nil {
		wp.idle = make(map[int][]*core.World)
	}
	wp.idle[rc.L] = append(wp.idle[rc.L], w)
}

// snapshot returns the idle worlds, the worlds built and the worlds dropped.
func (wp *worldPool) snapshot() (idle int, built, dropped int64) {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	for _, ws := range wp.idle {
		idle += len(ws)
	}
	return idle, wp.built, wp.dropped
}
