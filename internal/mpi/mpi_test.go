package mpi

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var testCM = CostModel{AlphaSec: 1e-6, BetaSecPerByte: 1e-9}

func TestRunSpawnsAllRanks(t *testing.T) {
	var count int64
	Run(8, testCM, func(c *Comm) {
		atomic.AddInt64(&count, 1)
		if c.Size() != 8 {
			t.Errorf("size=%d", c.Size())
		}
		if c.Rank() < 0 || c.Rank() >= 8 {
			t.Errorf("rank=%d", c.Rank())
		}
	})
	if count != 8 {
		t.Fatalf("ran %d ranks, want 8", count)
	}
}

func TestBcast(t *testing.T) {
	Run(6, testCM, func(c *Comm) {
		for root := 0; root < c.Size(); root++ {
			var msg Payload
			if c.Rank() == root {
				msg = Bytes(100 + root)
			}
			got := c.Bcast(root, msg)
			if got.(Bytes) != Bytes(100+root) {
				t.Errorf("rank %d: bcast from %d got %v", c.Rank(), root, got)
			}
		}
	})
}

func TestBcastMetersEveryRank(t *testing.T) {
	meters := Run(4, testCM, func(c *Comm) {
		c.Meter().SetCategory("A-Broadcast")
		var msg Payload
		if c.Rank() == 0 {
			msg = Bytes(1000)
		}
		c.Bcast(0, msg)
	})
	for r, m := range meters {
		s := m.Step("A-Broadcast")
		if s.Messages != 1 || s.Bytes != 1000 {
			t.Errorf("rank %d: msgs=%d bytes=%d", r, s.Messages, s.Bytes)
		}
		// α·lg(4) + β·1000 = 2e-6 + 1e-6 = 3e-6
		want := 2*1e-6 + 1000*1e-9
		if diff := s.CommSeconds - want; diff > 1e-15 || diff < -1e-15 {
			t.Errorf("rank %d: comm=%v want %v", r, s.CommSeconds, want)
		}
	}
}

// TestNilPayloadCollectives: a root that contributes nothing is a legal
// broadcast of nothing — every rank gets nil back and is charged one message
// of zero bytes — through Bcast, the split form, and Allgather alike. Bcast
// and IbcastStart+Wait must leave field-identical meters, and Run's audit
// (which panics on a request never waited) must stay quiet.
func TestNilPayloadCollectives(t *testing.T) {
	const p = 4
	forms := []struct {
		name string
		call func(c *Comm) []Payload
		cost float64
	}{
		{"Bcast", func(c *Comm) []Payload { return []Payload{c.Bcast(1, nil)} }, testCM.BcastCost(p, 0)},
		{"IbcastStart+Wait", func(c *Comm) []Payload { return []Payload{c.IbcastStart(1, nil).Wait()} }, testCM.BcastCost(p, 0)},
		{"Allgather", func(c *Comm) []Payload { return c.Allgather(nil) }, testCM.AllreduceCost(p, 0)},
	}
	steps := make([]StepStats, len(forms))
	for i, f := range forms {
		meters := Run(p, testCM, func(c *Comm) {
			c.Meter().SetCategory("step")
			for _, got := range f.call(c) {
				if got != nil {
					t.Errorf("%s: rank %d received %v, want nil", f.name, c.Rank(), got)
				}
			}
		})
		steps[i] = meters[0].Step("step")
		for r, m := range meters {
			if s := m.Step("step"); s != steps[i] || s.Messages != 1 || s.Bytes != 0 || s.CommSeconds != f.cost {
				t.Errorf("%s: rank %d metered %+v, want one message of 0 bytes costing %v", f.name, r, s, f.cost)
			}
		}
	}
	if steps[0] != steps[1] {
		t.Errorf("Bcast metered %+v, IbcastStart+Wait %+v", steps[0], steps[1])
	}
}

func TestAllgather(t *testing.T) {
	Run(5, testCM, func(c *Comm) {
		got := c.Allgather(Bytes(c.Rank() * 10))
		for i, v := range got {
			if v.(Bytes) != Bytes(i*10) {
				t.Errorf("rank %d: allgather[%d]=%v", c.Rank(), i, v)
			}
		}
	})
}

func TestAllToAllv(t *testing.T) {
	Run(4, testCM, func(c *Comm) {
		send := make([]Payload, c.Size())
		for dst := range send {
			send[dst] = Bytes(c.Rank()*100 + dst)
		}
		recv := c.AllToAllv(send)
		for src, v := range recv {
			want := Bytes(src*100 + c.Rank())
			if v.(Bytes) != want {
				t.Errorf("rank %d: recv[%d]=%v, want %v", c.Rank(), src, v, want)
			}
		}
	})
}

func TestAllToAllvNilEntries(t *testing.T) {
	Run(3, testCM, func(c *Comm) {
		send := make([]Payload, c.Size())
		send[(c.Rank()+1)%3] = Bytes(7)
		recv := c.AllToAllv(send)
		for src, v := range recv {
			wantSet := (src+1)%3 == c.Rank()
			if wantSet && v.(Bytes) != 7 {
				t.Errorf("rank %d: missing payload from %d", c.Rank(), src)
			}
			if !wantSet && v != nil {
				t.Errorf("rank %d: unexpected payload from %d", c.Rank(), src)
			}
		}
	})
}

func TestAllreduce(t *testing.T) {
	Run(7, testCM, func(c *Comm) {
		if got := c.AllreduceInt64(int64(c.Rank()), OpSum); got != 21 {
			t.Errorf("sum=%d, want 21", got)
		}
		if got := c.AllreduceInt64(int64(c.Rank()), OpMax); got != 6 {
			t.Errorf("max=%d, want 6", got)
		}
		if got := c.AllreduceInt64(int64(c.Rank()), OpMin); got != 0 {
			t.Errorf("min=%d, want 0", got)
		}
		if got := c.AllreduceFloat64(1.5, OpSum); got != 10.5 {
			t.Errorf("fsum=%v, want 10.5", got)
		}
	})
}

func TestSplitRowsAndCols(t *testing.T) {
	// 6 ranks → 2×3 grid; split by row then by column.
	Run(6, testCM, func(c *Comm) {
		row, col := c.Rank()/3, c.Rank()%3
		rowComm := c.Split(row, col)
		if rowComm.Size() != 3 || rowComm.Rank() != col {
			t.Errorf("rank %d: row comm size=%d rank=%d", c.Rank(), rowComm.Size(), rowComm.Rank())
		}
		colComm := c.Split(10+col, row)
		if colComm.Size() != 2 || colComm.Rank() != row {
			t.Errorf("rank %d: col comm size=%d rank=%d", c.Rank(), colComm.Size(), colComm.Rank())
		}
		// Collectives on the sub-communicators work.
		if got := rowComm.AllreduceInt64(1, OpSum); got != 3 {
			t.Errorf("row allreduce=%d", got)
		}
		var msg Payload
		if colComm.Rank() == 1 {
			msg = Bytes(42)
		}
		if got := colComm.Bcast(1, msg); got.(Bytes) != 42 {
			t.Errorf("col bcast=%v", got)
		}
	})
}

func TestNestedSplit(t *testing.T) {
	Run(8, testCM, func(c *Comm) {
		half := c.Split(c.Rank()/4, c.Rank())
		quarter := half.Split(half.Rank()/2, half.Rank())
		if quarter.Size() != 2 {
			t.Errorf("quarter size=%d", quarter.Size())
		}
		if got := quarter.AllreduceInt64(int64(c.Rank()), OpMin); got != int64(c.Rank()/2*2) {
			t.Errorf("rank %d: quarter min=%d", c.Rank(), got)
		}
	})
}

func TestRepeatedSplitsDistinct(t *testing.T) {
	// Splitting twice with the same colors must yield working communicators
	// each time (generation counter prevents collisions).
	Run(4, testCM, func(c *Comm) {
		for i := 0; i < 3; i++ {
			sub := c.Split(c.Rank()%2, c.Rank())
			if got := sub.AllreduceInt64(1, OpSum); got != 2 {
				t.Fatalf("iteration %d: size=%d", i, got)
			}
		}
	})
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("expected panic")
		}
		if s, ok := e.(string); !ok || !strings.Contains(s, "rank 2 exploded") {
			t.Fatalf("unexpected panic value %v", e)
		}
	}()
	Run(4, testCM, func(c *Comm) {
		if c.Rank() == 2 {
			panic("rank 2 exploded")
		}
		c.Barrier() // other ranks wait here; must be woken, not deadlock
		c.Barrier()
	})
}

// TestPanicWakesSplitCommunicators: a rank failing while its peers wait in a
// communicator split from the world must wake them too.
func TestPanicWakesSplitCommunicators(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		Run(4, testCM, func(c *Comm) {
			sub := c.Split(c.Rank()%2, c.Rank())
			if c.Rank() == 2 {
				panic("rank 2 exploded")
			}
			sub.Barrier() // rank 0 waits here for rank 2
		})
	}()
	select {
	case e := <-done:
		if e != "rank 2 exploded" {
			t.Fatalf("Run panicked with %v, want the failing rank's own value", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ranks waiting in a split communicator were not woken 5 s after a peer panicked")
	}
}

func TestMeterCategories(t *testing.T) {
	m := NewMeter()
	m.SetCategory("x")
	m.AddCompute(1.5)
	m.SetCategory("y")
	m.AddCompute(0.5)
	m.AddCommSeconds(0.25)
	if got := m.TotalSeconds(); got != 2.25 {
		t.Errorf("total=%v", got)
	}
	cats := m.Categories()
	if len(cats) != 2 || cats[0] != "x" || cats[1] != "y" {
		t.Errorf("categories=%v", cats)
	}
	m.ScaleCompute(2)
	if got := m.Step("x").ComputeSeconds; got != 3 {
		t.Errorf("scaled x compute=%v", got)
	}
	m.ScaleComm(4)
	if got := m.Step("y").CommSeconds; got != 1 {
		t.Errorf("scaled y comm=%v", got)
	}
}

func TestSummarizeTakesMaxTimes(t *testing.T) {
	a, b := NewMeter(), NewMeter()
	a.SetCategory("s")
	a.AddCompute(1)
	a.AddCommSeconds(0.5)
	b.SetCategory("s")
	b.AddCompute(3)
	sum := Summarize([]*Meter{a, b})
	st := sum.Step("s")
	if st.ComputeSeconds != 3 {
		t.Errorf("max compute=%v, want 3", st.ComputeSeconds)
	}
	if st.CommSeconds != 0.5 {
		t.Errorf("max comm=%v, want 0.5", st.CommSeconds)
	}
	if sum.CriticalPathSeconds != 3 {
		t.Errorf("critical path=%v, want 3", sum.CriticalPathSeconds)
	}
	if got := sum.TotalSeconds(); got != 3.5 {
		t.Errorf("TotalSeconds=%v", got)
	}
}

func TestCostModelFormulas(t *testing.T) {
	cm := CostModel{AlphaSec: 2, BetaSecPerByte: 3}
	if got := cm.BcastCost(1, 100); got != 0 {
		t.Errorf("single-rank bcast cost %v", got)
	}
	if got := cm.BcastCost(8, 10); got != 2*3+3*10 {
		t.Errorf("bcast cost %v", got)
	}
	if got := cm.AllToAllCost(4, 10); got != 2*3+3*10 {
		t.Errorf("alltoall cost %v", got)
	}
	// Non-power-of-two uses ceil(log2).
	if got := cm.BcastCost(5, 0); got != 2*3 {
		t.Errorf("bcast lg(5) cost %v", got)
	}
}

func TestTimedCharges(t *testing.T) {
	m := NewMeter()
	m.SetCategory("work")
	m.Timed(func() {
		s := 0
		for i := 0; i < 1000; i++ {
			s += i
		}
		_ = s
	})
	if m.Step("work").ComputeSeconds <= 0 {
		t.Error("Timed charged nothing")
	}
}

func TestBigWorld(t *testing.T) {
	// Stress: 256 ranks doing collective rounds must not deadlock.
	meters := Run(256, testCM, func(c *Comm) {
		sub := c.Split(c.Rank()%16, c.Rank())
		for i := 0; i < 3; i++ {
			sub.AllreduceInt64(1, OpSum)
			c.Barrier()
		}
	})
	if len(meters) != 256 {
		t.Fatalf("got %d meters", len(meters))
	}
}

func TestWorldAtScale(t *testing.T) {
	// 4096 ranks — the largest simulated process count the experiments use
	// (fig7 at -scale large). Collectives across splits must stay correct
	// and deadlock-free at this size.
	if testing.Short() {
		t.Skip("4096-rank world is slow in -short mode")
	}
	const p = 4096
	meters := Run(p, testCM, func(c *Comm) {
		// 16 layers of 16x16.
		layer := c.Split(c.Rank()/256, c.Rank()%256)
		if layer.Size() != 256 {
			t.Errorf("layer size=%d", layer.Size())
		}
		if got := layer.AllreduceInt64(1, OpSum); got != 256 {
			t.Errorf("layer allreduce=%d", got)
		}
		fiber := c.Split(c.Rank()%256, c.Rank()/256)
		if fiber.Size() != 16 {
			t.Errorf("fiber size=%d", fiber.Size())
		}
		send := make([]Payload, fiber.Size())
		for i := range send {
			send[i] = Bytes(fiber.Rank())
		}
		recv := fiber.AllToAllv(send)
		for src, v := range recv {
			if v.(Bytes) != Bytes(src) {
				t.Errorf("fiber alltoall wrong from %d", src)
			}
		}
	})
	if len(meters) != p {
		t.Fatalf("got %d meters", len(meters))
	}
}
