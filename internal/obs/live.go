package obs

import (
	"maps"
	"sync/atomic"
)

// Live is the mid-run snapshot handoff cell the serving daemon reads
// job metrics through. A Registry is single-goroutine by design (see
// the package comment), so concurrent readers can never walk it while
// the run mutates counters; instead the owning goroutine Publishes
// immutable Snapshots at safe points (step boundaries, collective
// healthy points) and any goroutine may Load the latest one. The cell
// is a single atomic pointer: Publish costs one store on the hot side,
// and readers never block the run.
//
// A published Snapshot must not be mutated afterwards — Load hands the
// same object to every reader.
type Live struct {
	p atomic.Pointer[Snapshot]
}

// Publish makes s the current snapshot. Nil-safe on both sides: a nil
// Live or a nil snapshot is a no-op, so publishing can be wired
// unconditionally like the rest of the obs instruments.
func (l *Live) Publish(s *Snapshot) {
	if l == nil || s == nil {
		return
	}
	l.p.Store(s)
}

// Load returns the most recently published snapshot, or nil when
// nothing has been published yet (or on a nil Live).
func (l *Live) Load() *Snapshot {
	if l == nil {
		return nil
	}
	return l.p.Load()
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
