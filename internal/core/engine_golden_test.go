package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/localmm"
	"repro/internal/semiring"
	"repro/internal/spmat"
)

var updateEngine = flag.Bool("update", false, "rewrite testdata/engine.golden from this run instead of comparing against it")

// digest folds the fingerprints and sorted flags of a list of pieces into a
// short hex string: equal for two lists exactly when every piece holds the
// same shape, format, sortedness, entries, stored order and value bits.
func digest(fps []string) string {
	sum := sha256.Sum256([]byte(strings.Join(fps, ";")))
	return hex.EncodeToString(sum[:4])
}

// pieceKey is one piece's fingerprint and sorted flag.
func pieceKey(m spmat.Matrix) string {
	return fmt.Sprintf("%s/%v", spmat.FingerprintOf(m).Key(), m.Sorted())
}

// engineRecords runs the engine golden's configurations and renders each run
// as one line: the configuration, then per rank its LocalFlops, UnmergedNNZ,
// MergedLayerNNZ, PeakMemBytes and Batches (slash-separated), a digest of its
// output pieces and a digest of the batches its hook was shown (fingerprinted
// inside the call).
func engineRecords(t *testing.T) []string {
	t.Helper()
	a := randomRealMat(t, 64, 48, 700, 4201)
	b := randomRealMat(t, 48, 72, 700, 4202)
	grids := []struct{ p, l int }{{16, 16}, {8, 2}, {9, 1}, {18, 2}, {16, 1}}
	schedules := []struct {
		name     string
		pipeline bool
		channels int
	}{{"staged", false, 0}, {"pipe-k1", true, 1}, {"pipe-k2", true, 2}}
	kernels := []localmm.Kernel{localmm.KernelHashUnsorted, localmm.KernelHashSorted, localmm.KernelHeap, localmm.KernelHybrid}
	mergers := []localmm.Merger{localmm.MergerHash, localmm.MergerHeap}
	semirings := []*semiring.Semiring{semiring.PlusTimes(), semiring.MinPlus()}
	var lines []string
	for _, g := range grids {
		// Every kernel × merger × semiring × thread count runs on every grid;
		// schedule × format × batch count × discard rotate through them so
		// that each grid also meets every one of those combinations.
		for n := range len(kernels) * len(mergers) * len(semirings) * 2 {
			k, mg, sr, threads := kernels[n%4], mergers[n/4%2], semirings[n/8%2], 1+3*(n/16%2)
			sched, f, batches := schedules[n%3], allFormats[n/3%3], 1+2*(n/9%2)
			discard := n%5 == 0
			rc := RunConfig{P: g.p, L: g.l, Cost: testCM, Opts: Options{
				Semiring: sr, Kernel: k, Merger: mg, Channels: sched.channels, ForceBatches: batches,
				Threads: threads, Pipeline: sched.pipeline, Format: f,
			}}
			name := fmt.Sprintf("p%d-l%d/%s/%v/%v/%v/%s/b%d/t%d/discard=%v", g.p, g.l, sched.name, f, k, mg, sr.Name, batches, threads, discard)
			hooked := make([][]string, g.p)
			hooks := func(rank int) BatchHook {
				return func(_ int, _ []int32, c *spmat.CSC) *spmat.CSC {
					hooked[rank] = append(hooked[rank], pieceKey(c))
					return nil
				}
			}
			var ranks []*Result
			var err error
			if discard {
				ranks, _, err = MultiplyDiscard(a, b, rc, hooks)
			} else {
				ranks, _, err = MultiplyRanks(a, b, rc, hooks)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fields := []string{name}
			for r, res := range ranks {
				out := make([]string, len(res.Pieces))
				for x, pc := range res.Pieces {
					out[x] = pieceKey(pc)
				}
				fields = append(fields, fmt.Sprintf("r%d=%d/%d/%d/%d/%d/%s/%s",
					r, res.LocalFlops, res.UnmergedNNZ, res.MergedLayerNNZ, res.PeakMemBytes, res.Batches, digest(out), digest(hooked[r])))
			}
			lines = append(lines, strings.Join(fields, " "))
		}
	}
	return lines
}

// TestEngineGolden pins what the engine computes, rank by rank, over grids
// with q = 1, 2, 3 (one and two layers) and 4, the staged and the pipelined
// schedule at one and two channels, all three formats, all four kernels, both
// mergers, plus-times and min-plus, b ∈ {1, 3}, Threads 1 and 4, and kept and
// discarded batches: every rank's output pieces and every batch its hook was
// shown, each by its fingerprint (shape, format, entries in stored order,
// value bits) and sorted flag, and the rank's LocalFlops, UnmergedNNZ,
// MergedLayerNNZ, PeakMemBytes and Batches. testdata/engine.golden holds
// them; -update rewrites it after an intended change — review the diff.
func TestEngineGolden(t *testing.T) {
	got := engineRecords(t)
	path := filepath.Join("testdata", "engine.golden")
	if *updateEngine {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("%d run records, %s holds %d", len(got), path, len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] == want[i] {
			continue
		}
		g, w := strings.Fields(got[i]), strings.Fields(want[i])
		field := fmt.Sprintf("field count %d, golden %d", len(g), len(w))
		for j := 1; j < len(g) && j < len(w); j++ {
			if g[j] != w[j] {
				field = fmt.Sprintf("%s, golden %s", g[j], w[j])
				break
			}
		}
		t.Errorf("%s: %s", g[0], field)
	}
}
