package obs

import (
	"maps"
	"slices"
	"time"
)

// Clock is one rank's kernel clock: per name, the accumulated wall time
// and the number of completed Start/Stop intervals — the per-kernel
// breakdown of the paper's Table II (Result.Timers, the metrics.json
// "timers" section). A tracing clock also records each interval as a
// Chrome trace span and takes instant events (rollbacks, aborts, probe
// violations), so the timer table and the trace are read off the same
// clock reads.
//
// A Clock is single-goroutine: each rank owns one, kept by rank id so it
// runs on across replacements and repartitions. A nil *Clock is a valid
// no-op: the kernels take an optional clock without allocating a
// throwaway one. Once each name has been seen, a non-tracing clock
// never allocates, which the steps' AllocsPerRun tests pin.
type Clock struct {
	byName map[string]*interval

	// tracing is set by NewTracingClock; then every completed interval,
	// Span and Instant lands in events, timestamped from epoch.
	tracing bool
	rank    int
	epoch   time.Time
	events  []TraceEvent
}

// interval is one name's accumulated time and its open interval.
type interval struct {
	elapsed time.Duration
	count   int64
	started time.Time
	running bool
}

// NewClock returns a clock that accumulates but records no trace.
func NewClock() *Clock {
	return &Clock{byName: make(map[string]*interval)}
}

// NewTracingClock returns a clock for rank that also records a trace
// whose timestamps are relative to epoch. All ranks of a run share one
// epoch, so merged traces align on a single timeline.
func NewTracingClock(rank int, epoch time.Time) *Clock {
	c := NewClock()
	c.tracing, c.rank, c.epoch = true, rank, epoch
	c.events = make([]TraceEvent, 0, 4096)
	return c
}

func (c *Clock) get(name string) *interval {
	iv, ok := c.byName[name]
	if !ok {
		iv = &interval{}
		c.byName[name] = iv
	}
	return iv
}

// Start opens an interval for name. Starting a name that is already
// running panics: nested starts of one kernel are a driver bug. A no-op
// on a nil Clock.
func (c *Clock) Start(name string) {
	if c == nil {
		return
	}
	iv := c.get(name)
	if iv.running {
		panic("obs: Start on running clock interval " + name)
	}
	iv.running = true
	iv.started = time.Now()
}

// Stop closes name's interval, accumulates it and, on a tracing clock,
// records it as a span. A no-op on a nil Clock.
func (c *Clock) Stop(name string) {
	if c == nil {
		return
	}
	iv := c.get(name)
	if !iv.running {
		panic("obs: Stop on stopped clock interval " + name)
	}
	d := time.Since(iv.started)
	iv.elapsed += d
	iv.count++
	iv.running = false
	if c.tracing {
		c.Span(name, iv.started, d)
	}
}

// Abandon discards every open interval, keeping the accumulated totals
// and counts. The supervised driver calls it between recovery epochs: a
// rank that died mid-kernel left an interval open, and the replay must
// be free to Start it again. A no-op on a nil Clock.
func (c *Clock) Abandon() {
	if c == nil {
		return
	}
	for _, iv := range c.byName {
		iv.running = false
	}
}

// Names returns the names started so far, sorted.
func (c *Clock) Names() []string {
	if c == nil {
		return nil
	}
	return slices.Sorted(maps.Keys(c.byName))
}

// Elapsed returns name's accumulated time (zero if never stopped or on
// a nil Clock).
func (c *Clock) Elapsed(name string) time.Duration {
	if c == nil || c.byName[name] == nil {
		return 0
	}
	return c.byName[name].elapsed
}

// Count returns name's number of completed intervals (zero on a nil
// Clock).
func (c *Clock) Count(name string) int64 {
	if c == nil || c.byName[name] == nil {
		return 0
	}
	return c.byName[name].count
}

// Span records an interval as a trace span without accumulating it —
// for time measured outside Start/Stop, such as a halo wait. A no-op
// unless the clock is tracing.
func (c *Clock) Span(name string, start time.Time, d time.Duration) {
	c.record(TraceEvent{Name: name, Ph: "X"}, start, d)
}

// Instant records an instantaneous trace event; args may be nil. A
// no-op unless the clock is tracing.
func (c *Clock) Instant(name string, args any) {
	c.record(TraceEvent{Name: name, Ph: "i", Args: args}, time.Now(), 0)
}

// record stamps e with the rank's lane and its time since the epoch, in
// microseconds, and keeps it if the clock is tracing.
func (c *Clock) record(e TraceEvent, start time.Time, d time.Duration) {
	if c == nil || !c.tracing {
		return
	}
	e.Ts = float64(start.Sub(c.epoch)) / float64(time.Microsecond)
	e.Dur = float64(d) / float64(time.Microsecond)
	e.Pid = c.rank
	c.events = append(c.events, e)
}

// traceEvents returns the recorded trace events (nil unless tracing).
func (c *Clock) traceEvents() []TraceEvent {
	if c == nil {
		return nil
	}
	return c.events
}
