package service

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/spmat"
)

// settleGoroutines waits until no more than want goroutines run: a run's rank
// goroutines unwind just after it returns.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines between jobs, %d before the first", runtime.NumGoroutine(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// warmJobs is how many jobs TestWarmJobsKeepWorldsAndDropFailedOnes runs; a
// race-detector build runs fewer (race_test.go).
var warmJobs = 1000

// TestWarmJobsKeepWorldsAndDropFailedOnes runs warmJobs warm jobs on two
// resident pairs, one in 25 of them failed from inside its ranks (one rank's
// batch hook returns a piece of the wrong height, which aborts the world).
// Between jobs no goroutine is left beyond the test's own; the pool never holds more
// idle worlds than the pairs have layer counts; a failed job's world is
// dropped, so the next job on that grid builds a new one; and that job's
// product is bit-identical to the same job on a cold daemon.
func TestWarmJobsKeepWorldsAndDropFailedOnes(t *testing.T) {
	mats := map[string]*spmat.CSC{
		"er":    genmat.ER(40, 4, 71),
		"hyper": genmat.Hypersparse(256, 256, 2, 9),
	}
	// Under this budget the planner runs er·er on four layers and hyper·hyper
	// on one, so the pool keeps a world for each.
	cfg := testConfig(t, mats["er"], genmat.RMAT(genmat.RMATConfig{Scale: 5, EdgeFactor: 4, Seed: 72, Weighted: true}))
	newService := func() *Service {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range mats {
			if _, _, err := s.Load(name, m); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	s := newService()
	var fail atomic.Bool
	s.rankHooks = func(rank int) core.BatchHook {
		if rank != 0 || !fail.Load() {
			return nil
		}
		return func(_ int, _ []int32, m *spmat.CSC) *spmat.CSC { return spmat.New(m.Rows+1, m.Cols) }
	}
	reqs := []MultiplyRequest{{A: "er", B: "er"}, {A: "hyper", B: "hyper"}}
	cold := newService()
	want := make([][]byte, len(reqs))
	layersOf := make([]int, len(reqs))
	layers := map[int]bool{}
	for i, req := range reqs {
		res, c := product(t, cold, req)
		want[i] = c.Serialize()
		layersOf[i] = res.Plan.Choice.L
		layers[layersOf[i]] = true
		if _, err := s.Multiply(req); err != nil { // plans and deals it once
			t.Fatal(err)
		}
	}

	if len(layers) != 2 {
		t.Fatalf("the two pairs run on layer counts %v; the test wants a pool for each of two", layersOf)
	}

	goroutines := runtime.NumGoroutine()
	failures, afterFailure := 0, false
	// dropped holds the layer counts whose one world a failure dropped: the
	// next job on each must build a new one, and every other job none.
	dropped := map[int]bool{}
	for j := range warmJobs {
		req := j % len(reqs)
		before := s.Stats()
		if j%25 == 11 {
			fail.Store(true)
			_, err := s.Multiply(reqs[req])
			fail.Store(false)
			if err == nil {
				t.Fatalf("job %d: the injected rank error did not fail the job", j)
			}
			failures++
			afterFailure, dropped[layersOf[req]] = true, true
			if st := s.Stats(); st.WorldsDropped != before.WorldsDropped+1 || st.IdleWorlds != before.IdleWorlds-1 {
				t.Fatalf("job %d failed: dropped %d → %d, idle %d → %d; its world must be dropped",
					j, before.WorldsDropped, st.WorldsDropped, before.IdleWorlds, st.IdleWorlds)
			}
		} else {
			if afterFailure {
				_, c := product(t, s, reqs[req])
				if !bytes.Equal(c.Serialize(), want[req]) {
					t.Fatalf("job %d, after a failure: product differs from a cold daemon's", j)
				}
				afterFailure = false
			} else if _, err := s.Multiply(reqs[req]); err != nil {
				t.Fatalf("job %d: %v", j, err)
			}
			built := before.WorldsBuilt
			if dropped[layersOf[req]] {
				built++
				delete(dropped, layersOf[req])
			}
			if st := s.Stats(); st.WorldsBuilt != built {
				t.Fatalf("job %d: built %d → %d worlds, want %d: only a job whose grid lost its world to a failure builds one",
					j, before.WorldsBuilt, st.WorldsBuilt, built)
			}
		}
		if st := s.Stats(); st.IdleWorlds > len(layers) {
			t.Fatalf("job %d: %d idle worlds for %d layer counts", j, st.IdleWorlds, len(layers))
		}
		settleGoroutines(t, goroutines)
	}
	st := s.Stats()
	if st.WorldsDropped != int64(failures) || st.WorldsBuilt != int64(len(layers)+failures) || st.IdleWorlds != len(layers) {
		t.Fatalf("after %d jobs, %d failed, on %d layer counts: %d worlds built, %d dropped, %d idle",
			warmJobs, failures, len(layers), st.WorldsBuilt, st.WorldsDropped, st.IdleWorlds)
	}
	if st.JobFailures != int64(failures) {
		t.Fatalf("%d jobs failed, stats count %d", failures, st.JobFailures)
	}
}
