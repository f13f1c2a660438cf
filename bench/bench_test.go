package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{6, 50}, {39, 50}, {40, 75}, {120, 90}, {199, 90}, {300, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median(xs[:9]); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if median(nil) != 0 || percentile(nil, 99) != 0 {
		t.Error("empty sample sets must read 0")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// run{ step{ kernel kernel } step{} }: self time is a span's duration
	// minus its direct children's.
	rec := &recorder{}
	rec.spans = []span{
		{Name: "run", Parent: -1, Dur: 100},
		{Name: "step", Parent: 0, Dur: 40},
		{Name: "kernel", Parent: 1, Dur: 10},
		{Name: "kernel", Parent: 1, Dur: 15},
		{Name: "step", Parent: 0, Dur: 30},
	}
	want := map[string]time.Duration{"run": 30, "step": 45, "kernel": 25}
	if got := rec.selfTimes(); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if sum, n := rec.total("step"); sum != 70 || n != 2 {
		t.Errorf("total(step) = %v, %d, want 70, 2", sum, n)
	}

	// begin/end record the nesting; a nil recorder records nothing.
	live := &recorder{}
	live.begin("outer")
	live.begin("inner")
	live.end()
	live.end()
	if live.spans[0].Parent != -1 || live.spans[1].Parent != 0 || len(live.open) != 0 {
		t.Errorf("nesting not recorded: %+v", live.spans)
	}
	var off *recorder
	off.begin("x")
	off.end()
	if len(off.selfTimes()) != 0 {
		t.Error("nil recorder recorded a span")
	}
}

func TestJobMixFromSeed(t *testing.T) {
	draw := func(seed int64) [][]int {
		m := newJobMix(seed, batchJobs)
		var out [][]int
		for i := 0; i < 8; i++ {
			out = append(out, m.next())
		}
		return out
	}
	a := draw(7)
	if !reflect.DeepEqual(a, draw(7)) {
		t.Error("same seed gave different job sequences")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Error("different seeds gave the same job sequence")
	}
	for i, batch := range a {
		noh := 0
		for _, k := range batch {
			noh += k
		}
		if len(batch) != batchJobs || noh != nohPerBatch {
			t.Errorf("batch %d: %d jobs, %d Noh; want %d and %d on every seed", i, len(batch), noh, batchJobs, nohPerBatch)
		}
	}
}

func TestSpecIsValidAndMatchesBenchmarkJSON(t *testing.T) {
	spec := benchmarkSpec()
	if err := validateSpec(spec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var onDisk benchmarkJSON
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	// Compare through JSON so unexported fields do not take part.
	want, _ := json.Marshal(spec)
	got, _ := json.Marshal(onDisk)
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json differs from the tables in spec.go; one of them is stale\n got %s\nwant %s", got, want)
	}
}

func TestValidateSpecRejects(t *testing.T) {
	mutate := func(f func(*benchmarkJSON)) benchmarkJSON {
		b := benchmarkSpec()
		b.Workloads = slices.Clone(b.Workloads)
		b.EndToEnd = slices.Clone(b.EndToEnd)
		b.PerLayer = slices.Clone(b.PerLayer)
		f(&b)
		return b
	}
	many := func(n int) []layerSpec {
		out := make([]layerSpec, n)
		for i := range out {
			out[i] = layerSpec{fmt.Sprintf("m%d", i), "ns", "lower"}
		}
		return out
	}
	cases := map[string]benchmarkJSON{
		"name with a space":    mutate(func(b *benchmarkJSON) { b.Workloads[0].Name = "noh serial" }),
		"name with a slash":    mutate(func(b *benchmarkJSON) { b.PerLayer[0].Name = "hydro/step" }),
		"name too long":        mutate(func(b *benchmarkJSON) { b.PerLayer[0].Name = strings.Repeat("a", 65) }),
		"name used twice":      mutate(func(b *benchmarkJSON) { b.PerLayer[1].Name = b.PerLayer[0].Name }),
		"nine workloads":       mutate(func(b *benchmarkJSON) { b.Workloads = make([]workloadSpec, 9) }),
		"one workload":         mutate(func(b *benchmarkJSON) { b.Workloads = b.Workloads[:1] }),
		"seventeen e2e":        mutate(func(b *benchmarkJSON) { b.EndToEnd = make([]metricSpec, 17) }),
		"129 per-layer":        mutate(func(b *benchmarkJSON) { b.PerLayer = many(129) }),
		"bound past a quarter": mutate(func(b *benchmarkJSON) { b.EndToEnd[0].Bound = 0.3 }),
		"no setup_s":           mutate(func(b *benchmarkJSON) { b.EndToEnd[1].Name = "warmup_s" }),
		"bad unit":             mutate(func(b *benchmarkJSON) { b.PerLayer[0].Unit = "ns per el" }),
		"bad direction":        mutate(func(b *benchmarkJSON) { b.PerLayer[0].Better = "faster" }),
		"long why":             mutate(func(b *benchmarkJSON) { b.Workloads[0].Why = strings.Repeat("y", 201) }),
		"run_seconds 61":       mutate(func(b *benchmarkJSON) { b.RunSeconds = 61 }),
	}
	for name, b := range cases {
		if validateSpec(b) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := validateSpec(mutate(func(b *benchmarkJSON) { b.PerLayer = many(128) })); err != nil {
		t.Errorf("128 per-layer metrics rejected: %v", err)
	}
}

// TestSmoke drives every workload end to end on tiny inputs, untraced
// and traced, including the bitwise served-vs-direct check, and checks
// each pass reports exactly its contract metrics.
func TestSmoke(t *testing.T) {
	defer func(d string) { outDir = d }(outDir)
	outDir = t.TempDir()
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			r := newRun(w.Name, trace, 3, runSeconds, true)
			if err := r.execute(); err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if r.Attempted == 0 || r.Failed != 0 {
				t.Errorf("%s trace=%d: %d attempted, %d failed: %v", w.Name, trace, r.Attempted, r.Failed, r.Failures)
			}
			want := len(endToEnd)
			if trace == 1 {
				want = len(perLayer)
			}
			if len(r.Metrics) != want {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, trace, len(r.Metrics), want)
			}
			for name, s := range r.Metrics {
				if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || (trace == 0 && s.Value <= 0) {
					t.Errorf("%s trace=%d: %s = %v", w.Name, trace, name, s.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(outDir + "/trace." + w.Name + ".json"); err != nil {
					t.Errorf("%s: no Chrome trace written: %v", w.Name, err)
				}
			}
		}
	}
}

func TestEqualResultSeesOneBit(t *testing.T) {
	r := newRun("serve_jobs", 0, 1, runSeconds, true)
	kinds, err := r.jobKinds()
	if err != nil {
		t.Fatal(err)
	}
	ref := kinds[0].ref
	got := resultJSON(ref)
	if err := equalResult(got, ref); err != nil {
		t.Fatalf("a result differs from itself: %v", err)
	}
	got.Rho = slices.Clone(got.Rho)
	got.Rho[3] = math.Float64frombits(math.Float64bits(got.Rho[3]) ^ 1)
	if equalResult(got, ref) == nil {
		t.Error("a one-bit difference in rho went unnoticed")
	}
	if equalResult(nil, ref) == nil {
		t.Error("a missing result went unnoticed")
	}
}
