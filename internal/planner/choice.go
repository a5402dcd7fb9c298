package planner

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/spmat"
)

// Choice is the serializable form of a planner decision: the winning
// configuration plus the two predictions callers act on (the ranking score
// and the per-rank memory reservation). A Choice is what a plan cache
// stores and what the serving API returns — it carries no pointers into the
// Plan that produced it, marshals to stable JSON, and converts back to a
// Config for execution.
type Choice struct {
	// L and B are the layer and batch counts. B echoes the planner's induced
	// batch count; under a memory budget the runtime re-derives the real
	// count with the distributed symbolic step, so B here is the prediction,
	// not a forced knob.
	L int `json:"layers"`
	B int `json:"batches"`
	// Format and SparseComm are the knobs' flag spellings ("csc", "auto", …).
	Format     string `json:"format"`
	Pipeline   bool   `json:"pipeline"`
	SparseComm string `json:"sparse_comm"`
	// Channels is k, the pipelined overlap channel count (0 means the
	// single-injection ledger; only k ≥ 2 is ever recorded, so choices
	// from older plans round-trip unchanged).
	Channels int `json:"channels,omitempty"`
	// ModelSeconds is the configuration's predicted modeled critical path —
	// the planner's ranking objective.
	ModelSeconds float64 `json:"model_seconds"`
	// PeakMemBytesPerRank is the predicted per-rank memory high-water mark;
	// an admission scheduler multiplies it by P for a job's reservation.
	PeakMemBytesPerRank int64 `json:"peak_mem_bytes_per_rank"`
}

// Choice converts a ranked candidate into its serializable form.
func (c *Candidate) Choice() Choice {
	return Choice{
		L:                   c.L,
		B:                   c.B,
		Format:              c.Format.String(),
		Pipeline:            c.Pipeline,
		SparseComm:          c.SparseComm.String(),
		Channels:            c.Channels,
		ModelSeconds:        c.ModelSeconds,
		PeakMemBytesPerRank: c.PeakMemBytesPerRank,
	}
}

// Config converts the choice back into an executable configuration,
// re-parsing the knob spellings (an error means the Choice was built or
// transported incorrectly, e.g. hand-edited JSON).
func (ch Choice) Config() (Config, error) {
	f, err := spmat.ParseFormat(ch.Format)
	if err != nil {
		return Config{}, fmt.Errorf("planner: choice format: %w", err)
	}
	sm, err := mpi.ParseSparseMode(ch.SparseComm)
	if err != nil {
		return Config{}, fmt.Errorf("planner: choice sparse comm: %w", err)
	}
	return Config{L: ch.L, B: ch.B, Format: f, Pipeline: ch.Pipeline, SparseComm: sm, Channels: ch.Channels}, nil
}

// String renders the choice the way Config does, plus the score.
func (ch Choice) String() string {
	cfg, err := ch.Config()
	if err != nil {
		return fmt.Sprintf("invalid choice: %v", err)
	}
	return fmt.Sprintf("%s (model %.3gs, peak %dB/rank)", cfg, ch.ModelSeconds, ch.PeakMemBytesPerRank)
}

// CacheKey renders a deterministic key for a planning decision: the operand
// fingerprints plus every Input field — p, the budget, the machine and the
// symbolic pass. The search space is the planner's own, so two calls with
// content-identical operands and identical inputs produce identical keys,
// and a cache hit is guaranteed to return the decision the planner would
// have made — the probe and the full candidate sweep can be skipped. The
// Input is defaulted before rendering, so an omitted machine keys as the
// default one.
func CacheKey(fpA, fpB string, in Input) string {
	in = in.withDefaults()
	m := in.Machine
	return fmt.Sprintf("a=%s|b=%s|p=%d|mem=%d|m=%s,%g,%g,%g,%g|sym=%t", fpA, fpB, in.P, in.MemBytes,
		m.Name, m.AlphaSec, m.BetaSecPerByte, m.CommScale, m.ComputeScale, in.Symbolic)
}
