package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// MergeTraces concatenates per-rank trace files onto one timeline.
// Per-rank event order is preserved and ranks are appended in argument
// order, so for a fixed input set the merged event sequence is
// deterministic (the shared epoch already aligns timestamps; no
// re-sorting is needed, and none is done so that normalised golden
// comparisons are byte-stable).
func MergeTraces(files ...*TraceFile) *TraceFile {
	merged := &TraceFile{TraceEvents: []TraceEvent{}}
	for _, tf := range files {
		merged.TraceEvents = append(merged.TraceEvents, tf.TraceEvents...)
	}
	return merged
}

// NormalizeTrace zeroes the wall-clock fields (ts, dur) of every event
// in place, leaving only the deterministic structure: names, phases,
// ranks, order and args. Golden-snapshot tests compare normalised
// traces byte for byte.
func NormalizeTrace(tf *TraceFile) {
	for i := range tf.TraceEvents {
		tf.TraceEvents[i].Ts = 0
		tf.TraceEvents[i].Dur = 0
	}
}

// PhaseSummary is the per-phase aggregate of a merged trace: for each
// span name, the total time summed over ranks (CPU-seconds), the
// maximum per-rank total (the bulk-synchronous wall-clock estimate —
// directly comparable to the paper's Fig. 2 per-phase breakdown and to
// Result.Timers, the per-kernel maximum over rank clocks), and the span
// count.
type PhaseSummary struct {
	Name           string
	SumSec, MaxSec float64
	Count          int64
	InstantsByRank map[int]int64 // populated for instant events only
}

// Summarise aggregates a merged trace into per-phase rows sorted by
// descending max-rank seconds, with instant events collected
// separately (returned after the spans, zero-duration).
func Summarise(tf *TraceFile) []PhaseSummary {
	type acc struct {
		perRank map[int]float64
		count   int64
		instant bool
		byRank  map[int]int64
	}
	accs := map[string]*acc{}
	for _, e := range tf.TraceEvents {
		a, ok := accs[e.Name]
		if !ok {
			a = &acc{perRank: map[int]float64{}, byRank: map[int]int64{}}
			accs[e.Name] = a
		}
		a.count++
		a.byRank[e.Pid]++
		if e.Ph == "i" {
			a.instant = true
			continue
		}
		a.perRank[e.Pid] += e.Dur / 1e6
	}
	var spans, instants []PhaseSummary
	for name, a := range accs {
		row := PhaseSummary{Name: name, Count: a.count}
		for _, s := range a.perRank {
			row.SumSec += s
			if s > row.MaxSec {
				row.MaxSec = s
			}
		}
		if a.instant {
			row.InstantsByRank = a.byRank
			instants = append(instants, row)
		} else {
			spans = append(spans, row)
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].MaxSec != spans[j].MaxSec {
			return spans[i].MaxSec > spans[j].MaxSec
		}
		return spans[i].Name < spans[j].Name
	})
	sort.Slice(instants, func(i, j int) bool { return instants[i].Name < instants[j].Name })
	return append(spans, instants...)
}

// WriteSummaryTable renders the paper-style per-phase table of a
// merged trace: max-rank seconds (wall estimate), percent of total,
// rank-summed CPU seconds, and span counts.
func WriteSummaryTable(w io.Writer, rows []PhaseSummary) error {
	var total float64
	for _, r := range rows {
		total += r.MaxSec
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %8s %12s %8s\n", "phase", "max-rank s", "percent", "cpu s", "events")
	for _, r := range rows {
		if r.InstantsByRank != nil {
			fmt.Fprintf(&b, "%-16s %12s %7s%% %12s %8d\n", r.Name, "-", "-", "-", r.Count)
			continue
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * r.MaxSec / total
		}
		fmt.Fprintf(&b, "%-16s %12.6f %7.1f%% %12.6f %8d\n", r.Name, r.MaxSec, pct, r.SumSec, r.Count)
	}
	fmt.Fprintf(&b, "%-16s %12.6f\n", "total", total)
	_, err := io.WriteString(w, b.String())
	return err
}
