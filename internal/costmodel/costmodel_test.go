package costmodel

import (
	"math"
	"testing"
)

func TestMachinesDefined(t *testing.T) {
	for _, name := range []string{"knl", "haswell", "knl-ht", "local"} {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if m.AlphaSec <= 0 || m.BetaSecPerByte <= 0 {
			t.Errorf("%s: nonpositive constants", m.Name)
		}
		if m.ComputeScale <= 0 || m.CommScale <= 0 {
			t.Errorf("%s: nonpositive scales", m.Name)
		}
	}
	if _, err := ByName("cray-1"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestHaswellFasterThanKNL(t *testing.T) {
	knl, hsw := CoriKNL(), CoriHaswell()
	if !(hsw.ComputeScale < knl.ComputeScale) {
		t.Error("Haswell compute should be faster than KNL")
	}
	if !(hsw.BetaSecPerByte < knl.BetaSecPerByte) {
		t.Error("paper measures Haswell communication 1.4x faster")
	}
	// The paper's ratios: compute 2.1x, comm 1.4x.
	if r := knl.ComputeScale / hsw.ComputeScale; math.Abs(r-2.1) > 0.01 {
		t.Errorf("compute ratio %v, want 2.1", r)
	}
	if r := knl.BetaSecPerByte / hsw.BetaSecPerByte; math.Abs(r-1.4) > 0.01 {
		t.Errorf("beta ratio %v, want 1.4", r)
	}
}

func TestHyperThreadTradeoff(t *testing.T) {
	ht := CoriKNLHyperThreads()
	if !(ht.ComputeScale < 1) {
		t.Error("hyper-threading should speed computation")
	}
	if !(ht.CommScale > 1) {
		t.Error("hyper-threading should slow communication")
	}
}

func TestTableIIShapes(t *testing.T) {
	in := TableIIInput{
		P: 1024, L: 16, B: 8,
		NnzA: 1 << 30, NnzB: 1 << 30, Flops: 1 << 40,
		Alpha: 4e-6, Beta: 1e-9, BytesPerNnz: 24,
	}
	rows := TableII(in)
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	byStep := map[string]TableIIRow{}
	for _, r := range rows {
		byStep[r.Step] = r
		if r.Total() <= 0 {
			t.Errorf("%s: nonpositive total", r.Step)
		}
	}
	// A-Bcast bandwidth grows with b; B-Bcast bandwidth does not.
	in2 := in
	in2.B = 16
	rows2 := TableII(in2)
	byStep2 := map[string]TableIIRow{}
	for _, r := range rows2 {
		byStep2[r.Step] = r
	}
	if !(byStep2["A-Broadcast"].BandwidthSec > byStep["A-Broadcast"].BandwidthSec*1.9) {
		t.Error("A-Broadcast bandwidth should scale with b")
	}
	if byStep2["B-Broadcast"].BandwidthSec != byStep["B-Broadcast"].BandwidthSec {
		t.Error("B-Broadcast bandwidth should be independent of b")
	}
	if byStep2["AllToAll-Fiber"].BandwidthSec != byStep["AllToAll-Fiber"].BandwidthSec {
		t.Error("AllToAll-Fiber bandwidth should be independent of b")
	}
	// Latency terms all scale with b.
	if !(byStep2["AllToAll-Fiber"].LatencySec > byStep["AllToAll-Fiber"].LatencySec) {
		t.Error("AllToAll latency should scale with b")
	}
}

func TestTableIIMoreLayersCheaperBcast(t *testing.T) {
	in := TableIIInput{
		P: 4096, L: 1, B: 4,
		NnzA: 1 << 28, NnzB: 1 << 28, Flops: 1 << 36,
		Alpha: 4e-6, Beta: 1e-9, BytesPerNnz: 24,
	}
	in16 := in
	in16.L = 16
	get := func(rows []TableIIRow, step string) TableIIRow {
		for _, r := range rows {
			if r.Step == step {
				return r
			}
		}
		t.Fatalf("missing %s", step)
		return TableIIRow{}
	}
	a1 := get(TableII(in), "A-Broadcast")
	a16 := get(TableII(in16), "A-Broadcast")
	// Bandwidth drops by √l = 4.
	if r := a1.BandwidthSec / a16.BandwidthSec; math.Abs(r-4) > 1e-9 {
		t.Errorf("A-Bcast bandwidth ratio %v, want 4", r)
	}
	f1 := get(TableII(in), "AllToAll-Fiber")
	f16 := get(TableII(in16), "AllToAll-Fiber")
	if !(f16.LatencySec > f1.LatencySec) {
		t.Error("fiber latency should grow with l")
	}
}

func TestScaledBetaLeavesAlpha(t *testing.T) {
	m := CoriKNL().ScaledBeta(16)
	base := CoriKNL()
	if m.AlphaSec != base.AlphaSec {
		t.Error("ScaledBeta must not change α")
	}
	if m.BetaSecPerByte != base.BetaSecPerByte*16 {
		t.Error("ScaledBeta must multiply β")
	}
}

// Total returns latency plus bandwidth seconds.
func (r TableIIRow) Total() float64 { return r.LatencySec + r.BandwidthSec }
