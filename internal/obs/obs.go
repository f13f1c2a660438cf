// Package obs is BookLeaf's per-rank observability layer: a typed
// metrics registry (counters, gauges, histograms), the kernel Clock
// behind the per-kernel timer table and the Chrome trace_event spans,
// and runtime invariant probes (mass and energy conservation,
// finite-value sweeps).
//
// Each rank owns a private Registry, Clock and InvariantProbe (none
// are safe for concurrent use); after the run the driver merges the
// registries' Snapshots with Snapshot.Merge and reads the clocks by
// rank id. Everything is nil-safe — a nil *Registry hands out nil
// instruments whose methods no-op, and a nil *Clock times nothing — so
// hot paths publish unconditionally and pay only a nil check when
// observability is off. Counter.Add and Gauge.Set on a live instrument
// are a single field update: safe inside the steady-state step, whose
// zero-allocation property the AllocsPerRun regression tests pin.
//
// Registry instruments are resolved by name once (Registry.Counter et
// al. create on first use) and the returned pointer is then used
// directly, so the per-event cost never includes a map lookup. The
// Clock looks its name up on each Start and Stop: a few lookups per
// kernel call, never one per element.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
)

// Counter is a monotonically increasing integer metric. A nil *Counter
// discards updates.
type Counter struct {
	v int64
}

// Add increases the counter by n; a no-op on a nil Counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value-wins float metric. A nil *Gauge discards
// updates.
type Gauge struct {
	v   float64
	set bool
}

// Set records the gauge value; a no-op on a nil Gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	g.set = true
}

// Value returns the current value (zero on a nil or never-set Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histBuckets is the number of power-of-two histogram buckets: bucket
// i counts observations in [2^i, 2^(i+1)), with bucket 0 absorbing
// everything below 2 and the last bucket everything above.
const histBuckets = 32

// Histogram accumulates a distribution in fixed power-of-two buckets
// plus count/sum/min/max — enough for message-size and span-length
// distributions without per-observation allocation. A nil *Histogram
// discards updates.
type Histogram struct {
	count    int64
	sum      float64
	min, max float64
	buckets  [histBuckets]int64
}

// Observe records one sample; a no-op on a nil Histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	b := 0
	if v >= 2 {
		b = int(math.Log2(v))
		if b >= histBuckets {
			b = histBuckets - 1
		}
	}
	h.buckets[b]++
}

// Count returns the number of observations (zero on a nil Histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations (zero on a nil Histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Registry is a per-rank collection of named instruments. It is
// single-goroutine: each rank owns one and the driver merges their
// Snapshots after the run. A nil *Registry hands out nil instruments.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. On a
// nil Registry it returns a nil Counter (whose methods no-op).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil on a
// nil Registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use; nil
// on a nil Registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// HistSnapshot is the exported form of a histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Buckets maps the inclusive lower bound of each non-empty
	// power-of-two bucket to its count.
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time export of a Registry. Maps marshal with
// sorted keys (encoding/json), so serialisation is deterministic.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot exports the registry's current values. On a nil Registry it
// returns an empty (non-nil) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		if g.set {
			s.Gauges[name] = g.v
		}
	}
	for name, h := range r.hists {
		hs := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		if h.count > 0 {
			hs.Buckets = map[string]int64{}
			for i, n := range h.buckets {
				if n == 0 {
					continue
				}
				lo := int64(0)
				if i > 0 {
					lo = int64(1) << uint(i)
				}
				hs.Buckets[fmt.Sprintf("%d", lo)] = n
			}
		}
		s.Histograms[name] = hs
	}
	return s
}

// Merge folds other into s: counters and histogram tallies add, gauges
// adopt other's value (in per-rank merging only one rank publishes any
// given gauge, so last-set-wins is unambiguous). The driver merges its
// ranks' registries this way; the serving daemon uses it to stitch the
// metrics of a preempted job's legs back into one account — a resumed
// leg starts from zeroed instruments, so summing the legs yields the
// totals an uninterrupted run would have published. A nil other is a
// no-op.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	for name, v := range other.Gauges {
		s.Gauges[name] = v
	}
	for name, h := range other.Histograms {
		m, ok := s.Histograms[name]
		if !ok || m.Count == 0 {
			// Copy the bucket map so later merges never alias other's.
			h.Buckets = maps.Clone(h.Buckets)
			s.Histograms[name] = h
			continue
		}
		if h.Count == 0 {
			continue
		}
		if h.Min < m.Min {
			m.Min = h.Min
		}
		if h.Max > m.Max {
			m.Max = h.Max
		}
		m.Count += h.Count
		m.Sum += h.Sum
		if m.Buckets == nil {
			m.Buckets = map[string]int64{}
		}
		for lo, n := range h.Buckets {
			m.Buckets[lo] += n
		}
		s.Histograms[name] = m
	}
}

// MergeSnapshots folds the parts, in order, into a fresh snapshot
// without mutating any of them.
func MergeSnapshots(parts ...*Snapshot) *Snapshot {
	out := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	for _, p := range parts {
		out.Merge(p)
	}
	return out
}

// MetricsFile is the schema of the metrics.json a run emits: run
// identity, wall-clock fields (non-deterministic; golden tests
// normalise them), the deterministic instrument snapshot, and the
// merged per-kernel timer seconds.
type MetricsFile struct {
	Meta       Meta                    `json:"meta"`
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	// Timers holds per-kernel wall seconds (max across ranks) — a
	// wall-clock section, normalised by golden tests.
	Timers map[string]float64 `json:"timers"`
}

// Meta identifies the run a MetricsFile describes.
type Meta struct {
	Problem string `json:"problem"`
	NX      int    `json:"nx"`
	NY      int    `json:"ny"`
	Ranks   int    `json:"ranks"`
	Threads int    `json:"threads"`
	Steps   int    `json:"steps"`
	// WallSeconds is the run's wall-clock time — non-deterministic,
	// normalised by golden tests.
	WallSeconds float64 `json:"wall_seconds"`
}

// WriteMetrics serialises a MetricsFile as deterministic, indented
// JSON (map keys sort; only the wall-clock fields vary run to run).
func WriteMetrics(w io.Writer, m *MetricsFile) error {
	if m.Counters == nil {
		m.Counters = map[string]int64{}
	}
	if m.Gauges == nil {
		m.Gauges = map[string]float64{}
	}
	if m.Histograms == nil {
		m.Histograms = map[string]HistSnapshot{}
	}
	if m.Timers == nil {
		m.Timers = map[string]float64{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
