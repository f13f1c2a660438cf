package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("y")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %v", g.Value())
	}
	h := r.Histogram("z")
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded")
	}
	snap := r.Snapshot()
	if snap == nil || len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("msgs") != c {
		t.Fatal("Counter did not return the same instrument")
	}
	g := r.Gauge("energy")
	g.Set(1.5)
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
	h := r.Histogram("sizes")
	for _, v := range []float64{1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1010 {
		t.Fatalf("hist count/sum = %d/%v", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	hs := snap.Histograms["sizes"]
	if hs.Min != 1 || hs.Max != 1000 {
		t.Fatalf("hist min/max = %v/%v", hs.Min, hs.Max)
	}
	// 1 → bucket 0; 2,3 → [2,4); 4 → [4,8); 1000 → [512,1024).
	want := map[string]int64{"0": 1, "2": 2, "4": 1, "512": 1}
	for k, n := range want {
		if hs.Buckets[k] != n {
			t.Fatalf("bucket %s = %d, want %d (%v)", k, hs.Buckets[k], n, hs.Buckets)
		}
	}
}

func TestMergeSnapshots(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c").Add(2)
	b.Counter("c").Add(3)
	b.Counter("only_b").Add(1)
	b.Gauge("g").Set(7)
	a.Histogram("h").Observe(2)
	b.Histogram("h").Observe(8)
	b.Histogram("empty")
	// Unset gauges are not exported, so they cannot be adopted.
	b.Gauge("never_set")
	as, bs := a.Snapshot(), b.Snapshot()
	s := MergeSnapshots(as, bs, nil)
	if s.Counters["c"] != 5 || s.Counters["only_b"] != 1 {
		t.Fatalf("merged counters: %v", s.Counters)
	}
	if s.Gauges["g"] != 7 {
		t.Fatalf("merged gauge: %v", s.Gauges)
	}
	if _, ok := s.Gauges["never_set"]; ok {
		t.Fatal("unset gauge leaked through merge")
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.Sum != 10 || h.Min != 2 || h.Max != 8 || h.Buckets["2"] != 1 || h.Buckets["8"] != 1 {
		t.Fatalf("merged histogram: %+v", h)
	}
	if e, ok := s.Histograms["empty"]; !ok || e.Count != 0 {
		t.Fatalf("empty histogram lost in merge: %+v", s.Histograms)
	}
	// The parts are read, never written.
	if as.Counters["c"] != 2 || as.Histograms["h"].Count != 1 || len(as.Histograms["h"].Buckets) != 1 {
		t.Fatalf("merge mutated its first part: %+v", as)
	}
	s.Histograms["h"].Buckets["2"]++
	if as.Histograms["h"].Buckets["2"] != 1 {
		t.Fatal("merged snapshot aliases a part's buckets")
	}
}

func TestWriteMetricsDeterministic(t *testing.T) {
	mk := func() []byte {
		r := NewRegistry()
		r.Counter("b").Add(2)
		r.Counter("a").Add(1)
		r.Gauge("z").Set(1)
		r.Gauge("y").Set(2)
		s := r.Snapshot()
		var buf bytes.Buffer
		err := WriteMetrics(&buf, &MetricsFile{
			Meta:     Meta{Problem: "sod", Ranks: 2},
			Counters: s.Counters, Gauges: s.Gauges, Histograms: s.Histograms,
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, two := mk(), mk()
	if !bytes.Equal(one, two) {
		t.Fatal("WriteMetrics output not byte-stable across identical inputs")
	}
	var parsed MetricsFile
	if err := json.Unmarshal(one, &parsed); err != nil {
		t.Fatalf("metrics output is not valid JSON: %v", err)
	}
	if parsed.Counters["a"] != 1 || parsed.Counters["b"] != 2 {
		t.Fatalf("round-trip lost counters: %v", parsed.Counters)
	}
}

func TestProbeConservationAndViolation(t *testing.T) {
	p := NewInvariantProbe(10, nil)
	// Baseline sample, then a clean sample with round-off-level drift.
	p.Sample(10, 0.1, 1.0, 2.0, 0, 0, true)
	rec := p.Sample(20, 0.2, 1.0, 2.0+2e-12, 0, 0, true)
	if rec.Violation {
		t.Fatalf("round-off drift flagged: %+v", rec)
	}
	if rec.DriftPerStep > 1e-12 {
		t.Fatalf("drift per step = %v", rec.DriftPerStep)
	}
	// External work must be discounted.
	rec = p.Sample(30, 0.3, 1.0, 2.5, 0.5, 0, true)
	if rec.Violation {
		t.Fatalf("worked energy flagged: %+v", rec)
	}
	// A real conservation break trips the threshold.
	rec = p.Sample(40, 0.4, 1.0, 2.6, 0.5, 0, true)
	if !rec.Violation {
		t.Fatalf("energy leak not flagged: %+v", rec)
	}
	// Mass drift trips too.
	rec = p.Sample(50, 0.5, 1.01, 2.5, 0.5, 0, true)
	if !rec.Violation {
		t.Fatalf("mass drift not flagged: %+v", rec)
	}
	if p.Violations != 2 {
		t.Fatalf("violations = %d, want 2", p.Violations)
	}
	p.NoteNonFinite(55, 0.55)
	if p.Violations != 3 || len(p.Records) != 6 {
		t.Fatalf("NoteNonFinite not recorded: %d violations, %d records", p.Violations, len(p.Records))
	}
	last := p.Records[len(p.Records)-1]
	if last.Finite || !last.Violation {
		t.Fatalf("non-finite record malformed: %+v", last)
	}
}

func TestProbeNilSafe(t *testing.T) {
	var p *InvariantProbe
	p.Sample(1, 0, 1, 1, 0, 0, true)
	p.NoteNonFinite(1, 0)
}

func TestProbeNonFiniteSampleFlags(t *testing.T) {
	p := NewInvariantProbe(1, NewRegistry())
	p.Sample(1, 0.1, 1, 2, 0, 0, true)
	rec := p.Sample(2, 0.2, 1, 2, 0, 0, false)
	if !rec.Violation {
		t.Fatal("non-finite sample not flagged")
	}
}

func TestClockTraceAndMerge(t *testing.T) {
	epoch := time.Now()
	t0 := NewTracingClock(0, epoch)
	t1 := NewTracingClock(1, epoch)
	t0.Span("getq", epoch.Add(time.Millisecond), 2*time.Millisecond)
	t0.Instant("rollback", nil)
	t1.Span("getq", epoch.Add(time.Millisecond), 4*time.Millisecond)
	t1.Span("comms", epoch.Add(5*time.Millisecond), time.Millisecond)

	prefix := filepath.Join(t.TempDir(), "run")
	if err := t0.WriteTraceFile(prefix); err != nil {
		t.Fatal(err)
	}
	tf, err := ReadTraceFile(TracePath(prefix, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.TraceEvents) != 2 {
		t.Fatalf("rank 0 events = %d", len(tf.TraceEvents))
	}
	if tf.TraceEvents[0].Ph != "X" || tf.TraceEvents[0].Name != "getq" {
		t.Fatalf("span malformed: %+v", tf.TraceEvents[0])
	}
	if math.Abs(tf.TraceEvents[0].Dur-2000) > 1e-9 {
		t.Fatalf("span dur = %v us, want 2000", tf.TraceEvents[0].Dur)
	}

	merged := MergeTraces(
		&TraceFile{TraceEvents: t0.traceEvents()},
		&TraceFile{TraceEvents: t1.traceEvents()},
	)
	if len(merged.TraceEvents) != 4 {
		t.Fatalf("merged events = %d", len(merged.TraceEvents))
	}
	rows := Summarise(merged)
	// getq: max rank total 4ms, cpu sum 6ms, 2 events; sorted first.
	if rows[0].Name != "getq" {
		t.Fatalf("summary order: %v", rows)
	}
	if math.Abs(rows[0].MaxSec-0.004) > 1e-12 || math.Abs(rows[0].SumSec-0.006) > 1e-12 {
		t.Fatalf("getq summary: %+v", rows[0])
	}
	if rows[len(rows)-1].Name != "rollback" || rows[len(rows)-1].InstantsByRank[0] != 1 {
		t.Fatalf("instants not summarised: %+v", rows[len(rows)-1])
	}

	var table strings.Builder
	if err := WriteSummaryTable(&table, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "getq") || !strings.Contains(table.String(), "rollback") {
		t.Fatalf("summary table missing rows:\n%s", table.String())
	}

	NormalizeTrace(merged)
	for _, e := range merged.TraceEvents {
		if e.Ts != 0 || e.Dur != 0 {
			t.Fatalf("normalise left wall-clock fields: %+v", e)
		}
	}
}

func TestNilClockIsSafe(t *testing.T) {
	var c *Clock
	c.Start("x")
	c.Stop("x")
	c.Abandon()
	c.Span("x", time.Now(), time.Second)
	c.Instant("y", nil)
	if c.traceEvents() != nil || c.Names() != nil || c.Elapsed("x") != 0 || c.Count("x") != 0 {
		t.Fatal("nil clock recorded something")
	}
}

func TestClockAccumulates(t *testing.T) {
	c := NewClock()
	c.Start("k")
	time.Sleep(2 * time.Millisecond)
	c.Stop("k")
	first := c.Elapsed("k")
	if first < 2*time.Millisecond || c.Count("k") != 1 {
		t.Fatalf("after one interval: elapsed %v count %d", first, c.Count("k"))
	}
	c.Start("k")
	c.Stop("k")
	c.Start("a")
	c.Stop("a")
	if c.Elapsed("k") < first || c.Count("k") != 2 || c.Count("a") != 1 {
		t.Fatalf("after three intervals: k %v/%d, a %d", c.Elapsed("k"), c.Count("k"), c.Count("a"))
	}
	if c.Elapsed("nope") != 0 || c.Count("nope") != 0 {
		t.Fatal("an unknown name should read as zero")
	}
	if got := c.Names(); len(got) != 2 || got[0] != "a" || got[1] != "k" {
		t.Fatalf("names = %v, want [a k]", got)
	}
	// A clock that is not tracing keeps no events, spans and instants
	// included.
	c.Span("halo_wait", time.Now(), time.Millisecond)
	c.Instant("rollback", nil)
	if c.traceEvents() != nil {
		t.Fatalf("non-tracing clock recorded %d events", len(c.traceEvents()))
	}
}

// TestClockTracesEachInterval: on a tracing clock every Stop is one
// span, in order, and Span adds to the trace but not to the totals.
func TestClockTracesEachInterval(t *testing.T) {
	c := NewTracingClock(3, time.Now())
	c.Start("getq")
	c.Stop("getq")
	c.Span("halo_wait", time.Now(), time.Millisecond)
	c.Start("getacc")
	c.Instant("rollback", nil)
	c.Stop("getacc")
	var names []string
	for _, e := range c.traceEvents() {
		if e.Pid != 3 {
			t.Fatalf("event on lane %d, want 3: %+v", e.Pid, e)
		}
		names = append(names, e.Ph+":"+e.Name)
	}
	if got, want := strings.Join(names, " "), "X:getq X:halo_wait i:rollback X:getacc"; got != want {
		t.Fatalf("events %q, want %q", got, want)
	}
	if c.Count("halo_wait") != 0 || c.Count("getq") != 1 || c.Count("getacc") != 1 {
		t.Fatalf("counts halo_wait/getq/getacc = %d/%d/%d, want 0/1/1",
			c.Count("halo_wait"), c.Count("getq"), c.Count("getacc"))
	}
}

func TestClockMisusePanics(t *testing.T) {
	for name, misuse := range map[string]func(c *Clock){
		"double start": func(c *Clock) { c.Start("k"); c.Start("k") },
		"stray stop":   func(c *Clock) { c.Stop("k") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			misuse(NewClock())
		})
	}
}

// TestClockAbandon: an interval left open by a rank that died
// mid-kernel is dropped, the totals stay, and the name can start again.
func TestClockAbandon(t *testing.T) {
	c := NewClock()
	c.Start("k")
	c.Stop("k")
	before := c.Elapsed("k")
	c.Start("k")
	c.Abandon()
	if c.Count("k") != 1 || c.Elapsed("k") != before {
		t.Fatalf("abandon changed the totals: %d, %v", c.Count("k"), c.Elapsed("k"))
	}
	c.Start("k")
	c.Stop("k")
	if c.Count("k") != 2 {
		t.Fatalf("count after restart = %d, want 2", c.Count("k"))
	}
}

func TestTracePath(t *testing.T) {
	if got := TracePath("out/noh", 3); got != "out/noh.rank3.trace.json" {
		t.Fatalf("TracePath = %q", got)
	}
}
