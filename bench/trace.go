package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one bench-side interval around a call into a layer. Parent is the
// id of the span that caused it (-1 for a root); Op groups the spans of one
// operation.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer was created
	ID, Parent int
	Op         int
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same code runs traced and untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

const noSpan = -1

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, ID: id, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// in runs fn inside a span and returns the span's seconds (measured even
// when t is nil, so replay arithmetic does not depend on tracing).
func (t *tracer) in(name string, parent, op int, fn func()) float64 {
	id := t.begin(name, parent, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	t.end(id)
	return d
}

// durations returns the seconds of every closed span called name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// selfSeconds sums, per span name, each span's duration minus the durations
// of its direct children: the time a layer spent outside the layers below.
func (t *tracer) selfSeconds() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] += (s.End - s.Start - child[s.ID]).Seconds()
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto); one row per operation.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Op,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
