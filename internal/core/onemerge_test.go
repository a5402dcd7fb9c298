package core

import (
	"fmt"
	"testing"

	"repro/internal/genmat"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// TestOneMergeWhereNothingOverlaps pins where the pipelined schedule merges
// a batch's stage products once: on a grid with one stage (q = 1) no product
// is made before the exchange post, and on one layer (l = 1) there is no
// exchange to hide, so a per-destination Merge-Layer would overlap nothing.
// There the pipelined run must charge every category the staged run charges
// with the same bytes, messages and work units — pipelining is the broadcast
// prefetch alone — and a q = 1 grid's fiber exchange hides exactly 0 s.
// The control row (q = 2, l = 4) still merges per destination, whose
// Merge-Layer work units differ from the one merge's.
func TestOneMergeWhereNothingOverlaps(t *testing.T) {
	a := genmat.SymmetricPermute(genmat.ProteinSimilarity(9, 12, 1), 1)
	run := func(p, l, b int, f spmat.Format, pipeline bool) *mpi.Summary {
		t.Helper()
		rc := RunConfig{P: p, L: l, Cost: testCM, Opts: Options{ForceBatches: b, Format: f, Pipeline: pipeline}}
		_, _, sum, err := Multiply(a, a, rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	for _, g := range []struct{ p, l, b int }{{16, 16, 1}, {16, 16, 3}, {4, 4, 2}, {16, 1, 2}, {4, 1, 3}} {
		for _, f := range []spmat.Format{spmat.FormatCSC, spmat.FormatDCSC} {
			name := fmt.Sprintf("p%d-l%d-b%d/%v", g.p, g.l, g.b, f)
			staged, piped := run(g.p, g.l, g.b, f, false), run(g.p, g.l, g.b, f, true)
			for _, cat := range staged.Categories() {
				s, p := staged.Step(cat), piped.Step(cat)
				if s.Bytes != p.Bytes || s.Messages != p.Messages || s.WorkUnits != p.WorkUnits {
					t.Errorf("%s: %s charges %d B, %d messages, %d work units pipelined, %d B, %d messages, %d work units staged",
						name, cat, p.Bytes, p.Messages, p.WorkUnits, s.Bytes, s.Messages, s.WorkUnits)
				}
			}
			if hidden := piped.Step(StepAllToAllHidden).HiddenSeconds; g.p == g.l && hidden != 0 {
				t.Errorf("%s: the q = 1 fiber exchange hid %g s behind a merge that follows nothing", name, hidden)
			}
		}
	}
	staged, piped := run(16, 4, 2, spmat.FormatCSC, false), run(16, 4, 2, spmat.FormatCSC, true)
	if s, p := staged.Step(StepMergeLayer).WorkUnits, piped.Step(StepMergeLayer).WorkUnits; s == p {
		t.Errorf("p16-l4-b2: Merge-Layer charges %d work units on both schedules: the per-destination merge no longer runs", s)
	}
}
