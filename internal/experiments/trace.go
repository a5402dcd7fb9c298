package experiments

import (
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// This file backs `spgemm-bench -trace`: it re-runs one pinned gate shape
// with a span recorder attached, so the exact configuration the perf gate
// argues from can also be *looked at* — per rank, per stage, hidden vs
// exposed — in chrome://tracing or Perfetto.

// TraceShapeNames lists the pinned gate shapes -trace accepts, in gate order.
func TraceShapeNames() []string {
	names := make([]string, len(gateShapes))
	for i, sh := range gateShapes {
		names[i] = sh.name
	}
	return names
}

// RunTraceShape executes the named pinned gate shape with tracing on and
// returns the recorder plus the machine-scaled metering summary. The run is
// RunGate's run of that shape with a recorder attached, so the trace renders
// exactly the schedule the gate numbers come from. Machine scaling applies to
// the returned summary only (as in the gate); the trace keeps the meters' raw
// durations, preserving the span↔meter identity.
func RunTraceShape(name string) (*obs.Recorder, *mpi.Summary, error) {
	for _, sh := range gateShapes {
		if sh.name != name {
			continue
		}
		rec := obs.NewRecorder(sh.p)
		out, err := sh.run(rec)
		if err != nil {
			return nil, nil, err
		}
		return rec, out.summary, nil
	}
	names := TraceShapeNames()
	sort.Strings(names)
	return nil, nil, fmt.Errorf("unknown trace shape %q (one of: %v)", name, names)
}
