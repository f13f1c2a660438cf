package obs

import (
	"encoding/json"
	"fmt"
	"os"
)

// TraceEvent is one Chrome trace_event record. The subset a tracing
// Clock emits — complete spans ("X") and instant events ("i") — loads
// directly into chrome://tracing and Perfetto. Timestamps and durations
// are microseconds; Pid is the rank, so a merged multi-rank file shows one
// swim-lane per rank.
type TraceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

// TraceFile is the JSON object format of a per-rank trace dump.
type TraceFile struct {
	TraceEvents []TraceEvent `json:"traceEvents"`
}

// TracePath returns the per-rank trace file name for a -trace prefix:
// <prefix>.rank<id>.trace.json.
func TracePath(prefix string, rank int) string {
	return fmt.Sprintf("%s.rank%d.trace.json", prefix, rank)
}

// WriteTraceFile writes the recorded events to TracePath(prefix, rank)
// as a Chrome trace JSON object.
func (c *Clock) WriteTraceFile(prefix string) error {
	f, err := os.Create(TracePath(prefix, c.rank))
	if err != nil {
		return fmt.Errorf("obs: trace: %w", err)
	}
	if err := json.NewEncoder(f).Encode(&TraceFile{TraceEvents: c.traceEvents()}); err != nil {
		f.Close()
		return fmt.Errorf("obs: trace %s: %w", f.Name(), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: trace %s: %w", f.Name(), err)
	}
	return nil
}

// ReadTraceFile parses a trace dump written by Clock.WriteTraceFile.
func ReadTraceFile(path string) (*TraceFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	var tf TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("obs: trace %s: %w", path, err)
	}
	return &tf, nil
}
