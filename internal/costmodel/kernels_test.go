package costmodel

import "testing"

// TestKernelTableNilSafe: a nil table predicts from the defaults, exactly as
// DefaultKernelTable's does, for every name the benchmark's replay prices.
func TestKernelTableNilSafe(t *testing.T) {
	var nilT *KernelTable
	want := defaultKernelCoeffs[KernelNameHash]
	if got := nilT.Predict(KernelNameHash, 1000, 10); got != want.SecPerUnit*1000+want.SecPerCol*10 {
		t.Errorf("nil Predict = %v", got)
	}
	def := DefaultKernelTable()
	for _, name := range []string{KernelNameHash, KernelNameHashSorted, MergerNameHash} {
		got, want := nilT.Predict(name, 5000, 70), def.Predict(name, 5000, 70)
		if got != want || got <= 0 {
			t.Errorf("%s: nil table predicts %v, default table %v", name, got, want)
		}
	}
}
