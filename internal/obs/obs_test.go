package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestNilRecorderIsSafe: every method of a nil *RankRecorder and out-of-range
// Rank lookups must be no-ops — the disabled-tracing hot path depends on it.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *RankRecorder
	r.Record("x", KindComm, 1, 1, 1, 1)
	r.SetBatch(3)
	r.SetStage(2)
	r.TagChannel(1)
	if r.Spans() != nil {
		t.Error("nil recorder returned spans")
	}
	var rec *Recorder
	if rec.Rank(0) != nil {
		t.Error("nil Recorder.Rank(0) != nil")
	}
	live := NewRecorder(2)
	if live.Rank(-1) != nil || live.Rank(2) != nil {
		t.Error("out-of-range Rank lookup not nil")
	}
}

// TestClockModel: exposed spans advance the per-rank virtual clock in record
// order; hidden spans anchor backwards from the current clock (they overlap
// compute already on the timeline) and clamp at zero.
func TestClockModel(t *testing.T) {
	rec := NewRecorder(1)
	r := rec.Rank(0)
	r.Record("a", KindComm, 2, 1, 10, 0)
	r.Record("a", KindCompute, 3, 0, 0, 5)
	r.Record("a", KindHidden, 1.5, 0, 0, 0)
	r.Record("b", KindComm, 1, 1, 10, 0)

	sp := r.Spans()
	if sp[0].Start != 0 || sp[1].Start != 2 || sp[3].Start != 5 {
		t.Errorf("exposed starts %v %v %v, want 0 2 5", sp[0].Start, sp[1].Start, sp[3].Start)
	}
	if sp[2].Start != 5-1.5 {
		t.Errorf("hidden start %v, want %v", sp[2].Start, 5-1.5)
	}

	// A hidden span longer than everything before it clamps at zero.
	rec2 := NewRecorder(1)
	r2 := rec2.Rank(0)
	r2.Record("a", KindCompute, 1, 0, 0, 0)
	r2.Record("a", KindHidden, 10, 0, 0, 0)
	if got := r2.Spans()[1].Start; got != 0 {
		t.Errorf("clamped hidden start %v, want 0", got)
	}
}

// TestBatchStageChannelLabels: labels apply to spans recorded while set;
// TagChannel tags only a trailing hidden span and ignores invalid channels.
func TestBatchStageChannelLabels(t *testing.T) {
	rec := NewRecorder(1)
	r := rec.Rank(0)
	r.Record("a", KindComm, 1, 0, 0, 0) // before any labels
	r.SetBatch(2)
	r.SetStage(1)
	r.Record("a", KindComm, 1, 0, 0, 0)
	r.Record("a", KindHidden, 1, 0, 0, 0)
	r.TagChannel(1)
	r.TagChannel(-1) // no-op
	r.SetBatch(-1)
	r.SetStage(-1)
	r.Record("a", KindComm, 1, 0, 0, 0)
	r.TagChannel(0) // last span is not hidden: must not tag

	sp := r.Spans()
	if sp[0].Batch != -1 || sp[0].Stage != -1 {
		t.Errorf("pre-label span labeled %+v", sp[0])
	}
	if sp[1].Batch != 2 || sp[1].Stage != 1 {
		t.Errorf("labeled span %+v", sp[1])
	}
	if sp[2].Channel != 1 {
		t.Errorf("hidden span channel %d, want 1", sp[2].Channel)
	}
	if sp[3].Batch != -1 || sp[3].Stage != -1 || sp[3].Channel != -1 {
		t.Errorf("post-reset span %+v", sp[3])
	}
}

// TestTraceJSONIsValidChromeFormat: the export parses as JSON, carries the
// traceEvents array with complete ("X") events in µs, thread metadata, and
// puts hidden spans on their own pid so they never nest under exposed ones.
func TestTraceJSONIsValidChromeFormat(t *testing.T) {
	rec := NewRecorder(2)
	r0 := rec.Rank(0)
	r0.SetBatch(1)
	r0.Record("Local-Multiply", KindCompute, 0.5, 0, 0, 99)
	r0.Record("A-Broadcast", KindHidden, 0.25, 0, 0, 0)
	r0.TagChannel(0)
	rec.Rank(1).Record("A-Broadcast", KindComm, 1.0, 2, 1234, 0)

	buf, err := rec.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var complete, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
		case "M":
			meta++
		}
	}
	if complete != 3 {
		t.Errorf("%d complete events, want 3", complete)
	}
	if meta == 0 {
		t.Error("no metadata (process/thread name) events")
	}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			continue
		}
		args := ev["args"].(map[string]any)
		switch ev["name"] {
		case "Local-Multiply":
			if ev["dur"].(float64) != 0.5*1e6 {
				t.Errorf("compute dur %v µs, want 5e5", ev["dur"])
			}
			if args["work_units"].(float64) != 99 || args["batch"].(float64) != 1 {
				t.Errorf("compute args %v", args)
			}
		case "A-Broadcast":
			if args["kind"] == "hidden" {
				if ev["pid"].(float64) == 0 {
					t.Error("hidden span on the exposed pid")
				}
				if args["channel"].(float64) != 0 {
					t.Errorf("hidden channel %v", args["channel"])
				}
			} else if args["bytes"].(float64) != 1234 || args["msgs"].(float64) != 2 {
				t.Errorf("comm args %v", args)
			}
		}
	}

	var w bytes.Buffer
	if err := rec.WriteTrace(&w); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(w.Bytes()) {
		t.Error("WriteTrace output is not valid JSON")
	}
}

// TestRecorderSpansConcatenatesRankOrder: Recorder.Spans returns every
// rank's spans grouped in rank order.
func TestRecorderSpansConcatenatesRankOrder(t *testing.T) {
	rec := NewRecorder(3)
	rec.Rank(2).Record("c", KindComm, 1, 0, 0, 0)
	rec.Rank(0).Record("a", KindComm, 1, 0, 0, 0)
	rec.Rank(1).Record("b", KindComm, 1, 0, 0, 0)
	all := rec.Spans()
	if len(all) != 3 || all[0].Rank != 0 || all[1].Rank != 1 || all[2].Rank != 2 {
		t.Errorf("spans out of rank order: %+v", all)
	}
}
