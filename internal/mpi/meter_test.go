package mpi

import (
	"math"
	"testing"
)

func TestAddComputeWorkAccumulates(t *testing.T) {
	m := NewMeter()
	m.SetCategory("k")
	m.AddComputeWork(0.5, 100)
	m.AddComputeWork(0.25, 50)
	s := m.Step("k")
	if s.ComputeSeconds != 0.75 {
		t.Errorf("seconds=%v", s.ComputeSeconds)
	}
	if s.WorkUnits != 150 {
		t.Errorf("work=%d", s.WorkUnits)
	}
}

func TestSummarizeSmoothsOutliers(t *testing.T) {
	// Three ranks with identical work; one measurement is polluted by a
	// large outlier. Smoothing must attribute equal compute to all ranks.
	meters := make([]*Meter, 3)
	for i := range meters {
		meters[i] = NewMeter()
		meters[i].SetCategory("mult")
		sec := 0.010
		if i == 1 {
			sec = 0.500 // preempted rank
		}
		meters[i].AddComputeWork(sec, 1000)
	}
	sum := Summarize(meters)
	got := sum.Step("mult").ComputeSeconds
	// Global rate = 0.52/3000; per-rank smoothed = 0.52/3.
	want := 0.52 / 3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("smoothed max=%v, want %v", got, want)
	}
}

func TestSummarizePreservesImbalance(t *testing.T) {
	// Rank 1 does 4x the work; smoothing must preserve the 4x ratio even if
	// its raw measurement was noisy.
	a, b := NewMeter(), NewMeter()
	a.SetCategory("mult")
	a.AddComputeWork(0.01, 100)
	b.SetCategory("mult")
	b.AddComputeWork(0.01, 400) // same measured time, 4x work
	sum := Summarize([]*Meter{a, b})
	rate := 0.02 / 500
	want := 400 * rate
	if got := sum.Step("mult").ComputeSeconds; math.Abs(got-want) > 1e-12 {
		t.Errorf("max compute=%v, want %v (the 4x-work rank)", got, want)
	}
}

func TestSummarizeNoWorkFallsBackToRaw(t *testing.T) {
	a, b := NewMeter(), NewMeter()
	a.SetCategory("x")
	a.AddComputeWork(0.1, 0)
	b.SetCategory("x")
	b.AddComputeWork(0.4, 0)
	sum := Summarize([]*Meter{a, b})
	if got := sum.Step("x").ComputeSeconds; got != 0.4 {
		t.Errorf("raw max=%v, want 0.4", got)
	}
}

func TestSummarizeCriticalPathUsesSmoothedTimes(t *testing.T) {
	a, b := NewMeter(), NewMeter()
	a.SetCategory("mult")
	a.AddComputeWork(1.0, 100) // outlier measurement, normal work
	a.addComm(0, 0, 0.1)
	b.SetCategory("mult")
	b.AddComputeWork(0.01, 100)
	b.addComm(0, 0, 0.2)
	sum := Summarize([]*Meter{a, b})
	// Smoothed compute per rank = (1.01/200)*100 = 0.505.
	// Rank totals: a = 0.505+0.1, b = 0.505+0.2 → critical path 0.705.
	if math.Abs(sum.CriticalPathSeconds-0.705) > 1e-9 {
		t.Errorf("critical path=%v, want 0.705", sum.CriticalPathSeconds)
	}
}

func TestMeasureComputeReturnsPositive(t *testing.T) {
	Run(1, testCM, func(c *Comm) {
		sec := c.MeasureCompute(func() {
			s := 0.0
			for i := 0; i < 100000; i++ {
				s += float64(i)
			}
			_ = s
		})
		if sec <= 0 {
			t.Error("MeasureCompute returned nonpositive time")
		}
	})
}

func TestMeasureComputeConcurrent(t *testing.T) {
	// Many ranks racing the gate must all complete and measure >= 0.
	Run(32, testCM, func(c *Comm) {
		sec := c.MeasureCompute(func() {
			s := 0
			for j := 0; j < 10000; j++ {
				s += j
			}
			_ = s
		})
		if sec < 0 {
			t.Error("negative measurement")
		}
	})
}

// TotalSeconds returns this rank's critical-path contribution: the sum over
// all categories of modeled comm plus measured compute.
func (m *Meter) TotalSeconds() float64 {
	var t float64
	for _, s := range m.stats {
		t += s.Total()
	}
	return t
}
