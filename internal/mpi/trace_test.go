package mpi

import (
	"testing"

	"repro/internal/obs"
)

// SetRecorder attaches a per-rank span recorder to a meter outside a run (nil
// detaches, turning tracing off); a World attaches its run's recorder itself.
func (m *Meter) SetRecorder(r *obs.RankRecorder) { m.rec = r }

// TestTracingDisabledAddsZeroAllocations: with no recorder attached (the
// default — Run passes a nil *obs.Recorder), every metering charge path must
// allocate nothing. The nil *obs.RankRecorder's methods are no-ops, so
// tracing costs literally one nil check per charge when off.
func TestTracingDisabledAddsZeroAllocations(t *testing.T) {
	m := NewMeter()
	m.SetCategory("steady")
	// Warm the category map so steady-state charges hit existing entries.
	m.addComm(1, 100, 1e-6)
	m.AddComputeWork(1e-6, 10)
	m.addHidden("steady", 1e-6)
	if got := testing.AllocsPerRun(100, func() {
		m.addComm(1, 100, 1e-6)
		m.AddComputeWork(1e-6, 10)
		m.addHidden("steady", 1e-6)
	}); got != 0 {
		t.Errorf("metering charges with tracing off allocated %v times per run, want 0", got)
	}
}

// TestTracedChargesRecordExactValues: every charge path records one span
// carrying exactly the value the accumulator was incremented by.
func TestTracedChargesRecordExactValues(t *testing.T) {
	rec := obs.NewRecorder(1)
	m := NewMeter()
	m.SetRecorder(rec.Rank(0))
	m.SetCategory("mult")
	m.addComm(3, 700, 0.25)
	m.AddComputeWork(0.5, 42)
	m.addHidden("mult", 0.125)

	spans := rec.Rank(0).Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	comm, comp, hid := spans[0], spans[1], spans[2]
	if comm.Kind != obs.KindComm || comm.Dur != 0.25 || comm.Msgs != 3 || comm.Bytes != 700 {
		t.Errorf("comm span %+v", comm)
	}
	if comp.Kind != obs.KindCompute || comp.Dur != 0.5 || comp.Work != 42 {
		t.Errorf("compute span %+v", comp)
	}
	if hid.Kind != obs.KindHidden || hid.Dur != 0.125 {
		t.Errorf("hidden span %+v", hid)
	}
	// Replay the additions: the per-category sums must equal the meter's.
	st := m.Step("mult")
	if st.CommSeconds != comm.Dur || st.ComputeSeconds != comp.Dur ||
		st.HiddenSeconds != hid.Dur || st.WorkUnits != comp.Work {
		t.Errorf("meter %+v does not match spans", st)
	}
}

// TestRunTracedAttachesPerRankRecorders: RunTraced gives each rank its own
// recorder, and collective charges land as spans on the right rank.
func TestRunTracedAttachesPerRankRecorders(t *testing.T) {
	const p = 4
	rec := obs.NewRecorder(p)
	RunTraced(p, CostModel{AlphaSec: 1e-6, BetaSecPerByte: 1e-9}, rec, func(c *Comm) {
		c.Meter().SetCategory("bcast")
		c.Bcast(0, Bytes(4096))
	})
	for r := 0; r < p; r++ {
		spans := rec.Rank(r).Spans()
		if len(spans) == 0 {
			t.Errorf("rank %d recorded no spans", r)
			continue
		}
		for _, sp := range spans {
			if sp.Rank != r {
				t.Errorf("rank %d holds a span stamped rank %d", r, sp.Rank)
			}
			if sp.Cat != "bcast" {
				t.Errorf("rank %d span category %q", r, sp.Cat)
			}
		}
	}
}

// BenchmarkTraceOverheadOff measures the steady-state charge path with
// tracing off — the default every simulation runs. BenchmarkTraceOverheadOn
// is the same sequence with a recorder attached; the delta is the tracing
// tax, reported in CI as BENCH_obs.json.
func BenchmarkTraceOverheadOff(b *testing.B) {
	m := NewMeter()
	m.SetCategory("steady")
	m.addComm(1, 100, 1e-6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.addComm(1, 100, 1e-6)
		m.AddComputeWork(1e-6, 10)
		m.addHidden("steady", 1e-6)
	}
}

func BenchmarkTraceOverheadOn(b *testing.B) {
	m := NewMeter()
	m.SetCategory("steady")
	m.addComm(1, 100, 1e-6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A real run records thousands of spans per rank, not millions;
		// start a fresh recorder periodically so the measured cost reflects
		// a realistic trace length's append amortization, not the growth
		// copies of one unbounded slice.
		if i%8192 == 0 {
			m.SetRecorder(obs.NewRecorder(1).Rank(0))
		}
		m.addComm(1, 100, 1e-6)
		m.AddComputeWork(1e-6, 10)
		m.addHidden("steady", 1e-6)
	}
}
