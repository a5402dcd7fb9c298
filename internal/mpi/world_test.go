package mpi

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// worldCM charges in powers of two, so every modeled second and every sum of
// them is exact and two summaries of the same charges compare with ==.
var worldCM = CostModel{AlphaSec: 1.0 / 1024, BetaSecPerByte: 1.0 / (1 << 20)}

// worldJobs are two different runs over a rank's world, row and column
// communicators. The second charges a category the first does not and skips
// one the first charges, so a reused meter that kept the first run's
// categories, or their values, shows.
var worldJobs = []func(c, row, col *Comm){
	func(c, row, col *Comm) {
		m := c.Meter()
		m.SetCategory("bcast")
		var msg Payload
		if row.Rank() == 0 {
			msg = Bytes(1024 * (c.Rank() + 1))
		}
		row.Bcast(0, msg)
		m.SetCategory("exchange")
		send := make([]Payload, col.Size())
		for i := range send {
			send[i] = Bytes(64 * (i + 1))
		}
		col.PutRecv(col.AllToAllv(send))
		m.SetCategory("compute")
		c.MeasureCompute(func() { c.Workers(2) })
		m.AddComputeWork(0.25*float64(c.Rank()+1), int64(100*(c.Rank()+1)))
	},
	func(c, row, col *Comm) {
		m := c.Meter()
		m.SetCategory("exchange")
		req := row.IbcastStart(1, Bytes(4096))
		m.SetCategory("compute")
		m.AddComputeWork(0.5, 7)
		m.SetCategory("exchange")
		req.WaitOverlap(1.0/512, "exchange-hidden")
		m.SetCategory("reduce")
		c.AllreduceInt64(int64(c.Rank()), OpMax)
	},
}

// worldRun is what one run left: every rank's charged categories and their
// stats, the run's summary and, traced, every rank's spans.
type worldRun struct {
	steps   []map[string]StepStats
	summary *Summary
	spans   [][]obs.Span
}

// runWorldJob runs job on w with a fresh recorder, on the row and column
// communicators subs holds for each rank — split in this run when subs holds
// none yet — and snapshots what the run left before w can run again.
func runWorldJob(w *World, subs [][2]*Comm, job func(c, row, col *Comm)) worldRun {
	rec := obs.NewRecorder(w.Size())
	meters := w.Run(rec, func(c *Comm) {
		s := &subs[c.Rank()]
		if s[0] == nil {
			s[0] = c.Split(c.Rank()/2, c.Rank())
			s[1] = c.Split(c.Rank()%2, c.Rank())
		}
		job(c, s[0], s[1])
	})
	out := worldRun{summary: Summarize(meters)}
	for r, m := range meters {
		st := map[string]StepStats{}
		for _, cat := range m.Categories() {
			st[cat] = m.Step(cat)
		}
		out.steps = append(out.steps, st)
		out.spans = append(out.spans, rec.Rank(r).Spans())
	}
	return out
}

// TestReusedWorldRunsLikeFreshWorlds: two runs on one world — the second on
// the communicators the first split — leave meters, categories, summaries
// and trace spans identical to the same two runs on two fresh worlds.
func TestReusedWorldRunsLikeFreshWorlds(t *testing.T) {
	const p = 4
	kept := NewWorld(p, worldCM)
	keptSubs := make([][2]*Comm, p)
	for i, job := range worldJobs {
		reused := runWorldJob(kept, keptSubs, job)
		fresh := runWorldJob(NewWorld(p, worldCM), make([][2]*Comm, p), job)
		if !reflect.DeepEqual(reused.steps, fresh.steps) {
			t.Errorf("run %d: reused world's meters\n%v\nfresh world's\n%v", i, reused.steps, fresh.steps)
		}
		if !reflect.DeepEqual(reused.summary, fresh.summary) {
			t.Errorf("run %d: reused world's summary %+v, fresh world's %+v", i, reused.summary, fresh.summary)
		}
		if !reflect.DeepEqual(reused.spans, fresh.spans) {
			t.Errorf("run %d: reused world's spans differ from a fresh world's", i)
		}
		if len(reused.steps[0]) == 0 || len(reused.spans[0]) == 0 {
			t.Fatalf("run %d charged nothing", i)
		}
	}
	// An untraced run after a traced one records nothing into the old
	// recorder: each run brings its own.
	rec := obs.NewRecorder(p)
	kept.Run(rec, func(c *Comm) { c.Meter().AddComputeWork(1, 1) })
	kept.Run(nil, func(c *Comm) {
		if c.Meter().Recorder() != nil {
			t.Errorf("rank %d: an untraced run's meter records into the last run's recorder", c.Rank())
		}
		c.Meter().AddComputeWork(1, 1)
	})
	if n := len(rec.Rank(0).Spans()); n != 1 {
		t.Errorf("the first run's recorder holds %d spans, want its own 1", n)
	}
}

// TestIdleWorldHoldsNoGoroutine: every rank goroutine of a run ends with it.
func TestIdleWorldHoldsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	w := NewWorld(16, worldCM)
	for range 3 {
		w.Run(nil, func(c *Comm) { c.Barrier() })
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after three runs on an idle world, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// mustPanic runs fn and returns the panic value whose text contains want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		e := recover()
		if e == nil {
			t.Fatalf("returned, want a panic with %q", want)
		}
		if s, ok := e.(string); !ok || !strings.Contains(s, want) {
			t.Fatalf("panicked with %v, want %q", e, want)
		}
	}()
	fn()
}

// TestReusedWorldAuditsLeakedRequests: a request leaked on a communicator an
// earlier run split still fails the run that leaked it, and breaks the world.
func TestReusedWorldAuditsLeakedRequests(t *testing.T) {
	const p = 4
	w := NewWorld(p, worldCM)
	subs := make([][2]*Comm, p)
	runWorldJob(w, subs, worldJobs[0])
	mustPanic(t, "leaked", func() {
		runWorldJob(w, subs, func(c, row, col *Comm) {
			col.IbcastStart(0, Bytes(64)) // no Wait
		})
	})
	if !w.Broken() {
		t.Fatal("a run that leaked a request left its world usable")
	}
	mustPanic(t, "cannot run again", func() { runWorldJob(w, subs, worldJobs[1]) })
}

// TestWorldWhoseRunPanickedNeverRunsAgain: after a rank panic the world is
// broken, and Run refuses it before any rank starts.
func TestWorldWhoseRunPanickedNeverRunsAgain(t *testing.T) {
	w := NewWorld(4, worldCM)
	w.Run(nil, func(c *Comm) { c.Barrier() })
	if w.Broken() {
		t.Fatal("a clean run broke its world")
	}
	mustPanic(t, "rank 1 exploded", func() {
		w.Run(nil, func(c *Comm) {
			if c.Rank() == 1 {
				panic("rank 1 exploded")
			}
			c.Barrier()
		})
	})
	if !w.Broken() {
		t.Fatal("a run that panicked left its world usable")
	}
	ran := false
	mustPanic(t, "cannot run again", func() { w.Run(nil, func(*Comm) { ran = true }) })
	if ran {
		t.Error("a broken world started its ranks")
	}
}

// TestWorldRunsOneRunAtATime: starting a run on a running world panics, and
// the run it interrupted fails with it.
func TestWorldRunsOneRunAtATime(t *testing.T) {
	w := NewWorld(2, worldCM)
	mustPanic(t, "while the world is running", func() {
		w.Run(nil, func(c *Comm) {
			if c.Rank() == 0 {
				w.Run(nil, func(*Comm) {})
			}
			c.Barrier()
		})
	})
	if !w.Broken() {
		t.Error("the interrupted run left its world usable")
	}
}
