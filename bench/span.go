package main

import (
	"encoding/json"
	"os"
	"time"

	"bookleaf/internal/obs"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	Name   string
	Parent int // index of the enclosing span, -1 at the root
	Rep    int
	Start  time.Time
	Dur    time.Duration
}

// recorder keeps the spans of one goroutine in memory until the run
// ends. A nil recorder records nothing, so the same driver code runs
// traced and untraced and the difference is the tracing overhead.
// Spans must nest: end closes the most recently begun span.
type recorder struct {
	lane  int // process lane in the Chrome trace
	rep   int
	spans []span
	open  []int
}

func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, span{Name: name, Parent: parent, Rep: r.rep, Start: time.Now()})
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	n := len(r.open) - 1
	sp := &r.spans[r.open[n]]
	sp.Dur = time.Since(sp.Start)
	r.open = r.open[:n]
}

// total is the summed duration and the count of the spans with a name.
func (r *recorder) total(name string) (time.Duration, int) {
	var sum time.Duration
	n := 0
	if r != nil {
		for i := range r.spans {
			if r.spans[i].Name == name {
				sum += r.spans[i].Dur
				n++
			}
		}
	}
	return sum, n
}

// selfTimes is, per span name, the time spent in those spans and not in
// their children.
func (r *recorder) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	if r == nil {
		return self
	}
	for i := range r.spans {
		sp := &r.spans[i]
		self[sp.Name] += sp.Dur
		if sp.Parent >= 0 {
			self[r.spans[sp.Parent].Name] -= sp.Dur
		}
	}
	return self
}

// writeTrace writes the recorders' spans as one Chrome trace_event file
// in internal/obs's schema, which bleaf-trace and Perfetto open.
func writeTrace(path, workload string, epoch time.Time, recs ...*recorder) error {
	var tf obs.TraceFile
	for _, r := range recs {
		if r == nil {
			continue
		}
		for i, sp := range r.spans {
			tf.TraceEvents = append(tf.TraceEvents, obs.TraceEvent{
				Name: sp.Name, Ph: "X", Pid: r.lane,
				Ts:   float64(sp.Start.Sub(epoch).Nanoseconds()) / 1e3,
				Dur:  float64(sp.Dur.Nanoseconds()) / 1e3,
				Args: map[string]any{"id": i, "parent": sp.Parent, "rep": sp.Rep, "workload": workload},
			})
		}
	}
	data, err := json.Marshal(&tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
