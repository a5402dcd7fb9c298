package mpi

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// within fails the test if fn has not returned after a generous bound: a gate
// bug shows as a hang, and the default test timeout is ten minutes.
func within(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: the ranks never finished")
	}
}

// spinUntil yields until cond holds; the yield lets the goroutines cond waits
// for run when the test has pinned GOMAXPROCS to 1.
func spinUntil(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

// gateState reads the gate's counters under its lock.
func gateState(g *computeGate) (free, waiting int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.free, g.waiting
}

// TestComputeGateDealsCores pins the rule of computeGate at capacities 1, 2
// and 4: sections never hold more cores than the host has, a lone rank gets
// the workers it asks for up to that, a rank waiting for its first core keeps
// every other section at one, over-asking cannot block, a panic returns the
// cores, and asking outside a section is a bug.
func TestComputeGateDealsCores(t *testing.T) {
	for _, capacity := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", capacity), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(capacity))

			t.Run("never-more-than-capacity", func(t *testing.T) {
				var held, high atomic.Int64
				within(t, func() {
					Run(8, testCM, func(c *Comm) {
						threads := 1 + c.Rank()%3
						for i := 0; i < 50; i++ {
							c.MeasureCompute(func() {
								cores := c.Workers(threads)
								if cores < 1 || cores > threads || cores > capacity {
									t.Errorf("rank %d asked for %d of %d cores, granted %d", c.Rank(), threads, capacity, cores)
								}
								now := held.Add(int64(cores))
								for h := high.Load(); now > h && !high.CompareAndSwap(h, now); h = high.Load() {
								}
								runtime.Gosched()
								held.Add(-int64(cores))
							})
						}
					})
				})
				if h := high.Load(); h < 1 || h > int64(capacity) {
					t.Errorf("sections in flight held %d cores, capacity %d", h, capacity)
				}
			})

			t.Run("lone-rank-gets-its-workers", func(t *testing.T) {
				for _, ask := range []int{3, capacity + 5} {
					want := min(ask, capacity)
					within(t, func() {
						Run(1, testCM, func(c *Comm) {
							c.MeasureCompute(func() {
								// Asked twice: the second call finds the
								// cores already held and takes no more.
								for range 2 {
									if cores := c.Workers(ask); cores != want {
										t.Errorf("lone rank asking for %d of %d cores granted %d, want %d", ask, capacity, cores, want)
									}
								}
								if cores := c.Workers(1); cores != 1 {
									t.Errorf("a kernel wanting one worker was told %d", cores)
								}
							})
						})
					})
				}
			})

			t.Run("ranks-first", func(t *testing.T) {
				// capacity ranks hold every core until capacity+1 more are
				// blocked at the gate. The first capacity of those get in
				// while another still waits for its first core, so each asking
				// for three workers must be told one; they hold their core
				// until all of them have asked, which keeps the last one
				// waiting the whole time. (The last gets into an emptying gate
				// and may take what is idle.)
				waiters := capacity + 1
				grants := make([]int, waiters)
				var holding, granted atomic.Int64
				var allBlocked atomic.Bool // latched: the count falls again as holders leave
				within(t, func() {
					Run(capacity+waiters, testCM, func(c *Comm) {
						if c.Rank() < capacity {
							c.MeasureCompute(func() {
								holding.Add(1)
								spinUntil(func() bool {
									if _, w := gateState(c.gate); w == waiters {
										allBlocked.Store(true)
									}
									return allBlocked.Load()
								})
							})
							return
						}
						spinUntil(func() bool { return holding.Load() == int64(capacity) })
						c.MeasureCompute(func() {
							cores := c.Workers(3) // before it counts as granted: the holders leave on the count
							grants[granted.Add(1)-1] = cores
							spinUntil(func() bool { return granted.Load() >= int64(capacity) })
						})
					})
				})
				for i, cores := range grants[:capacity] {
					if cores != 1 {
						t.Errorf("grant %d made while a rank waited for its first core: %d cores, want 1", i, cores)
					}
				}
			})

			t.Run("panic-returns-cores", func(t *testing.T) {
				before := runtime.NumGoroutine()
				var gate *computeGate
				var got any
				within(t, func() {
					defer func() { got = recover() }()
					Run(4, testCM, func(c *Comm) {
						if c.Rank() == 0 {
							gate = c.gate
						}
						// At capacity 1 every other rank needs the core the
						// failing section held to get through its own.
						c.MeasureCompute(func() {
							c.Workers(3)
							if c.Rank() == 1 {
								panic("rank 1 exploded in its section")
							}
						})
						c.Barrier()
					})
				})
				if got != "rank 1 exploded in its section" {
					t.Errorf("Run panicked with %v, want the failing rank's own value", got)
				}
				if free, waiting := gateState(gate); free != capacity || waiting != 0 {
					t.Errorf("after the panic the gate has %d of %d cores free and %d waiting", free, capacity, waiting)
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Errorf("%d goroutines before the failed Run, %d after", before, n)
				}
			})

			t.Run("workers-outside-a-section", func(t *testing.T) {
				defer func() {
					if e := recover(); e == nil {
						t.Error("Workers outside a compute section did not panic")
					}
				}()
				Run(1, testCM, func(c *Comm) { c.Workers(2) })
			})
		})
	}
}
