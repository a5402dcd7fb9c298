package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/localmm"
	"repro/internal/spmat"
)

// randomRealMat is randomMat with full-precision float64 values, so sums are
// inexact and any accumulation-order difference between kernels or mergers
// shows up as a value mismatch — integer-valued operands would mask it.
func randomRealMat(t testing.TB, rows, cols int32, nnz int, seed int64) *spmat.CSC {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts := make([]spmat.Triple, 0, nnz)
	for i := 0; i < nnz; i++ {
		ts = append(ts, spmat.Triple{
			Row: int32(rng.Intn(int(rows))),
			Col: int32(rng.Intn(int(cols))),
			Val: rng.Float64()*1.9 + 0.05,
		})
	}
	m, err := spmat.FromTriples(rows, cols, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestChannelLedgerTwoChannels pins the k-channel generalization: two
// requests posted over the same compute window can both hide completely when
// k = 2 (each claims its own channel), while k = 1 makes the second request
// find only what the first left unclaimed — and both accountings reduce to
// the staged zero when posts and waits are adjacent.
func TestChannelLedgerTwoChannels(t *testing.T) {
	approx := func(got, want float64) bool { return got > want-1e-12 && got < want+1e-12 }

	var led overlapLedger
	led.k = 2
	led.advance(1.0)
	// Request 1 claims the full [0, 1.0) window on channel 0.
	if c := led.creditSince(0); !approx(c, 1.0) {
		t.Fatalf("k=2 request 1 credit %v, want 1.0", c)
	}
	led.claim(0, 1.0)
	// Request 2, posted at the same clock, still sees the whole window on
	// channel 1 — the second NIC channel is what k buys.
	if c := led.creditSince(0); !approx(c, 1.0) {
		t.Fatalf("k=2 request 2 credit %v, want 1.0", c)
	}
	led.claim(0, 1.0)
	// A third request finds both channels drained.
	if c := led.creditSince(0); !approx(c, 0) {
		t.Fatalf("k=2 request 3 credit %v, want 0", c)
	}

	var one overlapLedger // k = 0 means one channel: the legacy ledger.
	one.advance(1.0)
	one.claim(0, 1.0)
	if c := one.creditSince(0); !approx(c, 0) {
		t.Fatalf("k=1 request 2 credit %v, want 0", c)
	}

	// Fresh compute becomes visible on every channel.
	led.advance(0.25)
	if c := led.creditSince(0); !approx(c, 0.25) {
		t.Fatalf("k=2 credit after new compute %v, want 0.25", c)
	}
	if c := led.creditSince(led.clock); c != 0 {
		t.Fatalf("future post sees credit %v", c)
	}
}

// TestChannelsPipelineHidesMoreNeverMoves: across k, the outputs must stay
// bit-identical and the volume accounting must not move — the channel knob
// touches modeled exposure only. Every k must hide something on this
// comm-heavy shape. (How *much* is hidden depends on measured wall-clock
// compute and varies run to run, so the k=2 ≥ k=1 monotonicity is pinned at
// the ledger unit level above, not across separate timed runs.)
func TestChannelsPipelineHidesMoreNeverMoves(t *testing.T) {
	a := randomRealMat(t, 64, 64, 1500, 81)
	b := randomRealMat(t, 64, 64, 1500, 82)
	run := func(channels int) (*spmat.CSC, float64, int64) {
		out, _, sum := runDistributed(t, 16, 4, a, b,
			Options{ForceBatches: 2, RunSymbolic: true, Pipeline: true, Channels: channels}, nil)
		var hidden float64
		var bytes int64
		for _, cat := range HiddenSteps {
			hidden += sum.Step(cat).HiddenSeconds
		}
		for _, cat := range Steps {
			bytes += sum.Step(cat).Bytes
		}
		return out, hidden, bytes
	}
	out1, hidden1, bytes1 := run(1)
	out2, hidden2, bytes2 := run(2)
	if !spmat.Equal(out1, out2) {
		t.Error("k=2 output differs from k=1")
	}
	if hidden1 <= 0 || hidden2 <= 0 {
		t.Errorf("pipelined runs hid nothing: k=1 %v, k=2 %v", hidden1, hidden2)
	}
	if bytes1 != bytes2 {
		t.Errorf("volume moved with the channel knob: %d vs %d bytes", bytes1, bytes2)
	}
	// k=1 spelled explicitly and the legacy zero value are the same ledger.
	out0, hidden0, bytes0 := run(0)
	if !spmat.Equal(out0, out1) || hidden0 <= 0 || bytes0 != bytes1 {
		t.Errorf("Channels=0 differs from Channels=1 (hidden %v, bytes %d vs %d)", hidden0, bytes0, bytes1)
	}
}

// TestKernelFormatMergerScheduleDifferential is the full-SUMMA differential
// matrix: both kernels × every storage format, under the staged, pipelined
// k=1, and pipelined k=2 schedules, must produce output exactly equal to the
// default configuration — structure and float64 values bit for bit.
// Full-precision operands make this a real claim.
func TestKernelFormatMergerScheduleDifferential(t *testing.T) {
	a := randomRealMat(t, 48, 48, 700, 83)
	b := randomRealMat(t, 48, 48, 700, 84)
	const p, l, batches = 8, 2, 2
	ref, _, _ := runDistributed(t, p, l, a, b, Options{ForceBatches: batches}, nil)

	kernels := []localmm.Kernel{localmm.KernelHashUnsorted, localmm.KernelHashSorted}
	formats := []spmat.Format{spmat.FormatCSC, spmat.FormatDCSC, spmat.FormatAuto}
	schedules := []struct {
		name     string
		pipeline bool
		channels int
	}{
		{"staged", false, 0},
		{"pipelined", true, 0},
		{"pipelined-k2", true, 2},
	}
	for _, kern := range kernels {
		for _, f := range formats {
			for _, sched := range schedules {
				name := fmt.Sprintf("%v/%v/%s", kern, f, sched.name)
				got, _, _ := runDistributed(t, p, l, a, b, Options{
					ForceBatches: batches, Kernel: kern, Format: f,
					Pipeline: sched.pipeline, Channels: sched.channels,
				}, nil)
				if !spmat.Equal(ref, got) {
					t.Errorf("%s: output differs from the default configuration", name)
				}
			}
		}
	}
}

// TestExtractAssembleMeteredOutsideGateSteps: the batch-piece extraction and
// final assembly are metered under their own categories, which carry work but
// stay out of Steps — the paper's stacked bars and the perf gate cover the
// seven presentation steps only.
func TestExtractAssembleMeteredOutsideGateSteps(t *testing.T) {
	for _, step := range Steps {
		if step == StepExtract || step == StepAssemble {
			t.Fatalf("%s leaked into the gate step list", step)
		}
	}
	a := randomRealMat(t, 48, 48, 700, 87)
	_, _, sum := runDistributed(t, 8, 2, a, a, Options{ForceBatches: 2}, nil)
	if w := sum.Step(StepExtract).WorkUnits; w <= 0 {
		t.Errorf("extraction metered no work: %d", w)
	}
	if w := sum.Step(StepAssemble).WorkUnits; w <= 0 {
		t.Errorf("assembly metered no work: %d", w)
	}
}
