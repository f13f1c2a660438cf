package main

import (
	"fmt"
	"regexp"
)

// The benchmark's contract, in one place: the workloads, the gated
// end-to-end metrics and the per-layer metrics. BENCHMARK.json at the
// root of the repository says the same and a unit test keeps the two
// equal.

// runSeconds is how long one run measures. The end-to-end pass of a
// direct-run workload repeats its complete run until its -seconds are up
// and reports the fastest repetition, so a parent commit and a change
// time the same work however many repetitions fit; every other count in
// the harness is a fixed function of -seconds.
const runSeconds = 30

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// width is the number of runnable threads/ranks/connections the
	// workload needs; it is refused when GOMAXPROCS is smaller.
	width int
}

// metricSpec is a gated end-to-end metric: Bound is the share of the
// parent's median by which it may worsen before a change is rejected.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerSpec is a per-layer metric; those carry no bound.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var workloads = []workloadSpec{
	{"noh_serial", "Paper Table II problem at 1 rank x 1 thread: internal/hydro kernels are at least 90% of the wall, so a kernel change shows here and a comms, remap or serving change must not.", 1},
	{"sod_ale_hybrid", "Eulerian remap every step at 2 threads: internal/ale phases and internal/par dispatch dominate, hydro is a minority, typhon, partition and serve are idle.", 2},
	{"sod_32k_flat", "32768-element mesh, ten times L2, at 2 ranks with hilbert reorder: the only workload where setup, order, partition, gather and typhon halos are a large share of time to solution.", 2},
	{"serve_jobs", "Small decks through durable bleaf-served over HTTP, 2 closed-loop clients on 1 worker: where admission, journal fsync, queueing, the scheduler mutex and JSON encode weigh most; hydro is 0.1 s a job.", 2},
}

// endToEnd are the metrics a user of the system sees and the driver
// gates. Every one is measured on every workload (see README.md for
// what each means on serve_jobs). The bounds are what the shared 2-core
// sandbox allows: its speed changes by up to half for tens of minutes at
// a time, and the driver's acceptance test needs the spread of ten runs
// inside the bound; see README.md, "Steadiness".
var endToEnd = []metricSpec{
	{"solve_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.2},
}

// perLayer are the traced pass's metrics, layer = module name. A metric
// reads 0 on a workload whose pipeline does not run that layer.
var perLayer = []layerSpec{
	{"setup.build_ms", "ms", "lower"},
	{"setup.bytes_per_el", "B", "lower"},
	{"order.hilbert_ms", "ms", "lower"},
	{"order.rcm_ms", "ms", "lower"},
	{"order.reuse_window", "ratio", "lower"},
	{"partition.rcb_ms", "ms", "lower"},
	{"partition.split_ms", "ms", "lower"},
	{"partition.edge_cut", "count", "lower"},
	{"partition.imbalance", "ratio", "lower"},
	{"hydro.step_ns_per_el", "ns", "lower"},
	{"hydro.getq_ns_per_el", "ns", "lower"},
	{"hydro.getforce_ns_per_el", "ns", "lower"},
	{"hydro.getacc_ns_per_el", "ns", "lower"},
	{"hydro.getdt_ns_per_el", "ns", "lower"},
	{"hydro.getgeom_ns_per_el", "ns", "lower"},
	{"hydro.getrho_ns_per_el", "ns", "lower"},
	{"hydro.getein_ns_per_el", "ns", "lower"},
	{"hydro.getpc_ns_per_el", "ns", "lower"},
	{"hydro.qforce_ns_per_el", "ns", "lower"},
	{"hydro.lagupdate_ns_per_el", "ns", "lower"},
	{"hydro.step_allocs", "count", "lower"},
	{"hydro.share", "ratio", "lower"},
	{"hydro.step_bytes_per_el", "B", "lower"},
	{"hydro.achieved_gbs", "GB/s", "higher"},
	{"hydro.roofline_frac", "ratio", "higher"},
	{"ale.apply_ns_per_el", "ns", "lower"},
	{"ale.share", "ratio", "lower"},
	{"ale.apply_allocs", "count", "lower"},
	{"par.dispatch_ns", "ns", "lower"},
	{"par.reduce_min_ns", "ns", "lower"},
	{"par.speedup_t2", "ratio", "higher"},
	{"typhon.exchange_us", "us", "lower"},
	{"typhon.allreduce_us", "us", "lower"},
	{"typhon.msgs_per_step", "count", "lower"},
	{"typhon.words_per_step", "count", "lower"},
	{"driver.ns_per_el_step", "ns", "lower"},
	{"driver.overhead_ns_per_el", "ns", "lower"},
	{"driver.nonstep_ms", "ms", "lower"},
	{"driver.speedup_ranks2", "ratio", "higher"},
	{"driver.probes_overhead_frac", "ratio", "lower"},
	{"driver.control_overhead_frac", "ratio", "lower"},
	{"checkpoint.capture_ms", "ms", "lower"},
	{"checkpoint.write_ms", "ms", "lower"},
	{"checkpoint.read_ms", "ms", "lower"},
	{"checkpoint.bytes_per_el", "B", "lower"},
	{"config.parse_us", "us", "lower"},
	{"machine.triad_gbs", "GB/s", "higher"},
	{"machine.predict_ratio", "ratio", "lower"},
	{"serve.job_p50_ms", "ms", "lower"},
	{"serve.job_tail_ms", "ms", "lower"},
	{"serve.submit_p50_ms", "ms", "lower"},
	{"serve.poll_p50_ms", "ms", "lower"},
	{"serve.poll_p99_ms", "ms", "lower"},
	{"serve.poll_late_p99_ms", "ms", "lower"},
	{"serve.jobs_per_s", "1/s", "higher"},
	{"serve.open_ms", "ms", "lower"},
	{"serve.submit_direct_us", "us", "lower"},
	{"serve.submit_mem_us", "us", "lower"},
	{"serve.journal_cost_us", "us", "lower"},
	{"serve.get_us", "us", "lower"},
	{"serve.result_encode_ms", "ms", "lower"},
	{"serve.result_bytes", "B", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.kernel_share", "ratio", "higher"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.polls_per_job", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.reopen_ms", "ms", "lower"},
	{"serve.journal_bytes", "B", "lower"},
	{"obs.trace_overhead_frac", "ratio", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"failed_share", "ratio", "lower"},
}

// benchmarkJSON is the schema of /BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

func benchmarkSpec() benchmarkJSON {
	return benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateSpec checks a spec against the limits the driver enforces
// before it makes a single run.
func validateSpec(b benchmarkJSON) error {
	if n := len(b.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1..60", b.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	metric := func(n, unit, better string) error {
		if err := name(n); err != nil {
			return err
		}
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("metric %s: bad unit %q", n, unit)
		}
		if better != "lower" && better != "higher" {
			return fmt.Errorf("metric %s: better is %q", n, better)
		}
		return nil
	}
	for _, w := range b.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range b.EndToEnd {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end-to-end metrics lack setup_s in s, lower is better")
	}
	for _, m := range b.PerLayer {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	return nil
}
