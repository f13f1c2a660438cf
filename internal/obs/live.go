package obs

import "maps"

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
