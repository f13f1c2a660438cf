package bookleaf_test

// Golden-snapshot tests for the observability artefacts: a fixed
// 2-rank deck must reproduce metrics.json and the merged trace
// byte-for-byte modulo wall-clock fields. The goldens live in
// testdata/ and are refreshed with
//
//	go test -run TestGolden -update
//
// Everything in the snapshot is deterministic by construction: the
// run itself is bit-reproducible (see equivalence_test.go), counters
// and probe gauges derive from it, JSON map keys are sorted by
// encoding/json, and the trace merge preserves per-rank event order.
// Wall-clock leaks through exactly two channels — meta.wall_seconds
// and the timers section in metrics.json, timestamps/durations in the
// trace — and the test zeroes those before comparing.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bookleaf"
	"bookleaf/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden observability snapshots")

func goldenConfig(dir string) bookleaf.Config {
	return bookleaf.Config{
		Problem: "sod", NX: 32, NY: 4, Ranks: 2, MaxSteps: 12,
		ALE:        "eulerian", // remap every step: exercises the remap halo phase
		ProbeEvery: 4,
		Trace:      filepath.Join(dir, "golden"),
		Metrics:    filepath.Join(dir, "metrics.json"),
	}
}

func compareOrUpdate(t *testing.T, goldenPath string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden snapshot; rerun with -update if the change is intended.\n--- got ---\n%s\n--- want ---\n%s",
			goldenPath, got, want)
	}
}

// normalisedMetrics runs cfg and returns its metrics.json with the
// wall-clock fields zeroed; the keys stay, so the snapshot still pins
// which timers and duration counters exist. Counters ending in _ns are
// wall-clock by convention (halo_wait_ns).
func normalisedMetrics(t *testing.T, cfg bookleaf.Config) []byte {
	t.Helper()
	if _, err := bookleaf.Run(cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.MetricsFile
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("metrics.json is not valid JSON: %v", err)
	}
	m.Meta.WallSeconds = 0
	for k := range m.Timers {
		m.Timers[k] = 0
	}
	for k := range m.Counters {
		if strings.HasSuffix(k, "_ns") {
			m.Counters[k] = 0
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteMetrics(&buf, &m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenMetricsSnapshot pins metrics.json at two ranks and at one.
// The one-rank snapshot carries the same metric names — there is one
// driver, so one schema — with the traffic counters reading zero.
func TestGoldenMetricsSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ranks  int
		golden string
	}{
		{"ranks-2", 2, "golden_metrics.json"},
		{"ranks-1", 1, "golden_metrics_ranks1.json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goldenConfig(t.TempDir())
			cfg.Ranks = tc.ranks
			compareOrUpdate(t, filepath.Join("testdata", tc.golden), normalisedMetrics(t, cfg))
		})
	}
}

// TestGoldenMetricsSnapshotSupervised pins the metrics schema of a
// supervised run: the supervise_* counters must appear (at zero — the
// run is fault-free) alongside the unsupervised snapshot's metrics,
// whose values must be unchanged by supervision.
func TestGoldenMetricsSnapshotSupervised(t *testing.T) {
	cfg := goldenConfig(t.TempDir())
	cfg.Supervise = &bookleaf.SuperviseConfig{Enabled: true}
	compareOrUpdate(t, filepath.Join("testdata", "golden_metrics_supervised.json"), normalisedMetrics(t, cfg))
}

func TestGoldenMergedTraceSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := goldenConfig(dir)
	if _, err := bookleaf.Run(cfg); err != nil {
		t.Fatal(err)
	}

	files := make([]*obs.TraceFile, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		tf, err := obs.ReadTraceFile(obs.TracePath(cfg.Trace, r))
		if err != nil {
			t.Fatal(err)
		}
		files[r] = tf
	}
	merged := obs.MergeTraces(files...)
	obs.NormalizeTrace(merged)
	got, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	compareOrUpdate(t, filepath.Join("testdata", "golden_trace.json"), got)
}
