package mpi

import (
	"strings"
	"testing"
)

var poolCM = CostModel{AlphaSec: 1e-6, BetaSecPerByte: 1e-9}

// TestRunPanicsOnLeakedRequest: a request posted but never completed drops
// its modeled cost from the meters, so the teardown audit in Run must fail
// the run (and with it the race workout) instead of returning quietly wrong
// numbers.
func TestRunPanicsOnLeakedRequest(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(c *Comm)
	}{
		{"ibcast", func(c *Comm) {
			var msg Payload
			if c.Rank() == 0 {
				msg = Bytes(128)
			}
			c.IbcastStart(0, msg) // no Wait
		}},
		{"ibcastcols", func(c *Comm) {
			var msg Payload
			if c.Rank() == 0 {
				msg = Bytes(128)
			}
			c.IbcastColsStart(0, msg, func(Payload) int64 { return 16 }, false) // no Wait
		}},
		{"ialltoallv", func(c *Comm) {
			send := make([]Payload, c.Size())
			for i := range send {
				send[i] = Bytes(8)
			}
			c.IalltoallvStart(send) // no Wait
		}},
		{"split-child", func(c *Comm) {
			sub := c.Split(c.Rank()%2, c.Rank())
			var msg Payload
			if sub.Rank() == 0 {
				msg = Bytes(64)
			}
			sub.IbcastStart(0, msg) // no Wait, on a derived communicator
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				e := recover()
				if e == nil {
					t.Fatal("Run returned despite a leaked request")
				}
				msg, ok := e.(string)
				if !ok || !strings.Contains(msg, "leaked") {
					panic(e) // not the audit: re-raise
				}
			}()
			Run(4, poolCM, tc.body)
		})
	}
}

// TestRunCleanWithCompletedRequests: the audit must stay silent when every
// posted request is completed, including requests posted on Split children.
func TestRunCleanWithCompletedRequests(t *testing.T) {
	Run(4, poolCM, func(c *Comm) {
		var msg Payload
		if c.Rank() == 1 {
			msg = Bytes(256)
		}
		c.IbcastStart(1, msg).Wait()
		sub := c.Split(c.Rank()/2, c.Rank())
		var m2 Payload
		if sub.Rank() == 0 {
			m2 = Bytes(32)
		}
		sub.IbcastColsStart(0, m2, func(Payload) int64 { return 8 }, true).Wait()
	})
}

// TestSteadyStateSendsDoNotAllocate: once the per-communicator pool is warm,
// a post/wait cycle — the per-send inner loop of the batched SUMMA schedule —
// must perform zero heap allocations on every rank.
func TestSteadyStateSendsDoNotAllocate(t *testing.T) {
	Run(4, poolCM, func(c *Comm) {
		var msg Payload
		if c.Rank() == 0 {
			msg = Bytes(4096)
		}
		sub := func(Payload) int64 { return 64 } // hoisted: per-send closures would allocate
		send := make([]Payload, c.Size())
		for i := range send {
			if i != c.Rank() {
				send[i] = Bytes(100 + int64(i))
			}
		}

		// Warm up each pooled path once.
		c.IbcastStart(0, msg).Wait()
		c.IbcastColsStart(0, msg, sub, false).Wait()
		c.PutRecv(c.IalltoallvStart(send).Wait())

		for _, tc := range []struct {
			name string
			fn   func()
		}{
			{"ibcast", func() { c.IbcastStart(0, msg).Wait() }},
			{"ibcastcols", func() { c.IbcastColsStart(0, msg, sub, false).Wait() }},
			{"ialltoallv", func() { c.PutRecv(c.IalltoallvStart(send).Wait()) }},
		} {
			if a := testing.AllocsPerRun(20, tc.fn); a != 0 {
				t.Errorf("rank %d: %s post/wait allocates %.1f per send, want 0", c.Rank(), tc.name, a)
			}
		}
	})
}

// TestIbcastColsMetering pins the sparse broadcast's charging rules: with
// small subsets the root meters like a personalized send of the summed
// subsets and each receiver like one point-to-point receive; with subsets as
// large as the block the collective must fall back and meter byte-identically
// to IbcastStart.
func TestIbcastColsMetering(t *testing.T) {
	cm := CostModel{AlphaSec: 1e-5, BetaSecPerByte: 1e-8}
	const p, root = 4, 1
	full := int64(100000)
	subsets := []int64{0, 10, 20, 30} // indexed by rank; root's entry unused

	run := func(sub func(c *Comm) func(Payload) int64) []*Meter {
		return Run(p, cm, func(c *Comm) {
			c.Meter().SetCategory("step")
			var msg Payload
			if c.Rank() == root {
				msg = Bytes(full)
			}
			c.IbcastColsStart(root, msg, sub(c), false).Wait()
		})
	}

	small := run(func(c *Comm) func(Payload) int64 {
		return func(Payload) int64 { return subsets[c.Rank()] }
	})
	var sum int64
	for r, n := range subsets {
		if r != root {
			sum += n
		}
	}
	for r, m := range small {
		st := m.Step("step")
		wantBytes := subsets[r]
		wantCost := cm.AlphaSec + cm.BetaSecPerByte*float64(subsets[r])
		if r == root {
			wantBytes = sum
			wantCost = cm.AllToAllCost(p, sum)
		}
		if st.Bytes != wantBytes || st.CommSeconds != wantCost || st.Messages != 1 {
			t.Errorf("rank %d: subset path metered %+v, want bytes=%d cost=%g", r, st, wantBytes, wantCost)
		}
	}

	dense := run(func(c *Comm) func(Payload) int64 {
		return func(Payload) int64 { return full } // subsets as big as the block
	})
	plain := Run(p, cm, func(c *Comm) {
		c.Meter().SetCategory("step")
		var msg Payload
		if c.Rank() == root {
			msg = Bytes(full)
		}
		c.IbcastStart(root, msg).Wait()
	})
	for r := range dense {
		if dense[r].Step("step") != plain[r].Step("step") {
			t.Errorf("rank %d: dense fallback metered %+v, IbcastStart %+v", r, dense[r].Step("step"), plain[r].Step("step"))
		}
	}
}

// TestIbcastColsDeliversFullPayload: whatever the decision, every rank gets
// the shared full-block reference back.
func TestIbcastColsDeliversFullPayload(t *testing.T) {
	Run(4, poolCM, func(c *Comm) {
		for _, force := range []bool{false, true} {
			var msg Payload
			if c.Rank() == 3 {
				msg = Bytes(777)
			}
			req := c.IbcastColsStart(3, msg, func(Payload) int64 { return 1 }, force)
			// A forced subset charges 1 byte per receiver (3 at the root),
			// not the 777-byte payload.
			if force && req.bytes >= 777 {
				t.Errorf("rank %d: forced subset not taken", c.Rank())
			}
			if got := req.Wait(); got.(Bytes) != 777 {
				t.Errorf("rank %d: got %v, want 777", c.Rank(), got)
			}
		}
	})
}
