package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median. The last instance is the one measured.
const setupReps = 3

// series is one closed-loop timed run of a workload's operations.
type series struct {
	walls      []float64 // seconds per operation, all clients
	calib      []float64 // seconds per calibration slice run between operations
	attempted  int
	failed     int
	firstErr   error
	busyS      float64 // wall seconds spent in operations, per client
	allocBytes uint64
	gcCount    uint32
	gcPauseNs  uint64
}

// calibEvery is the least time between two calibration slices of a client;
// calibQuiet is how many slices are taken before and after a series instead
// when there are several clients, because a slice between one client's
// operations would time the other client's work too.
const (
	calibEvery = 100 * time.Millisecond
	calibQuiet = 8
)

// runSeries has every client perform operations back to back, each starting
// its next one when the previous returns (or after a calibration slice), until
// seconds have passed and each has done at least minOps.
func runSeries(inst *instance, seconds float64, minOps int, tr *tracer) series {
	var s series
	var mu sync.Mutex
	var wg sync.WaitGroup
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	quiet := func() {
		for i := 0; i < calibQuiet && inst.clients > 1; i++ {
			s.calib = append(s.calib, calibrate())
		}
	}
	quiet()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < inst.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lastSlice time.Time
			for i := 0; i < minOps || time.Now().Before(deadline); i++ {
				t0 := time.Now()
				err := inst.op(c, tr)
				d := since(t0)
				slice := -1.0
				if inst.clients == 1 && time.Since(lastSlice) >= calibEvery {
					slice = calibrate()
					lastSlice = time.Now()
				}
				mu.Lock()
				s.attempted++
				s.walls = append(s.walls, d)
				if slice >= 0 {
					s.calib = append(s.calib, slice)
				}
				if err != nil {
					s.failed++
					if s.firstErr == nil {
						s.firstErr = err
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	quiet()
	for _, w := range s.walls {
		s.busyS += w / float64(inst.clients)
	}
	runtime.ReadMemStats(&after)
	s.allocBytes = after.TotalAlloc - before.TotalAlloc
	s.gcCount = after.NumGC - before.NumGC
	s.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	return s
}

// modelPass runs every distinct multiplication of one operation once, in
// process and untimed, under the staged form of the run that computes it, and
// returns what each run reports about itself. Modeled seconds, peaks and
// counts are properties of the inputs and the schedule, not of the host.
func modelPass(inst *instance) ([]engineStats, error) {
	out := make([]engineStats, len(inst.pairs))
	for i, ps := range inst.pairs {
		var err error
		if ps.discard {
			_, out[i], err = engineDiscard(ps.a, ps.b, ps.rc)
		} else {
			_, out[i], err = engineMultiply(ps.a, ps.b, ps.rc)
		}
		if err != nil {
			return nil, fmt.Errorf("model pass, pair %d: %w", i, err)
		}
	}
	return out, nil
}

// since is seconds elapsed from t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// result is one workload's outcome in one run.
type result struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Error     string                 `json:"error,omitempty"`
	OpWallS   summary                `json:"op_wall_s"`
	CalibS    float64                `json:"calib_s"` // median calibration slice of the run
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure is the untraced run: set up setupReps times, time a series of
// operations for seconds, score the model, and report the end-to-end metrics.
// The three times among them are in host-normalised seconds.
func measure(w workload, seed int64, seconds float64, smoke bool) (result, error) {
	res := result{Workload: w.name}
	var inst *instance
	var setupS, slices []float64
	for r := 0; r < setupReps; r++ {
		if inst != nil {
			inst.stop()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed, smoke); err != nil {
			return res, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setupS = append(setupS, since(t0))
		slices = append(slices, calibrate())
	}
	defer inst.stop()

	minOps := 2
	if !smoke {
		minOps = 10 / inst.clients
	}
	s := runSeries(inst, seconds, minOps, nil)
	models, err := modelPass(inst)
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}

	var modelS float64
	var peak int64
	for _, m := range models {
		modelS += m.ModelS
		peak = max(peak, m.PeakBytes)
	}
	ops := float64(s.attempted)
	res.fill(s)
	res.CalibS = median(append(slices, s.calib...))
	speed := calibNominalS / res.CalibS
	mflops := float64(inst.flopsPerOp) * ops / 1e6 / s.busyS
	fmt.Fprintf(os.Stderr, "%s: as measured: setup %.4f s, op wall p50 %.5f s, %.4f Mflop/s; calibration slice %.5f s, host speed %.3f\n",
		w.name, median(setupS), res.OpWallS.P50, mflops, res.CalibS, speed)
	res.Metrics = collect(endToEnd, map[string]float64{
		"setup_s":              median(setupS) * speed,
		"op_norm_s_p50":        res.OpWallS.P50 * speed,
		"mflops_per_norm_s":    mflops / speed,
		"alloc_mb_per_op":      float64(s.allocBytes) / 1e6 / ops,
		"model_s_per_op":       modelS,
		"peak_mem_mb_per_rank": float64(peak) / 1e6,
	})
	if len(inst.pairs) == 1 && inst.pairs[0].rc.Opts.MemBytes > 0 {
		use := float64(peak) * float64(inst.pairs[0].rc.P) / float64(inst.pairs[0].rc.Opts.MemBytes)
		flag := ""
		if use > 1 {
			flag = "  OVER BUDGET"
		}
		fmt.Fprintf(os.Stderr, "%s: core.budget_utilisation %.3f%s\n", w.name, use, flag)
	}
	return res, nil
}

func (r *result) fill(s series) {
	r.Attempted, r.Failed = s.attempted, s.failed
	r.Correct = s.failed == 0
	r.OpWallS = summarize(s.walls)
	if s.firstErr != nil {
		r.Error = s.firstErr.Error()
	}
}
