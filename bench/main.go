// Command bench is the repository's layered benchmark: four workloads
// from the Table-II kernels up to a served job, measured from outside
// through the public functions of each layer. See README.md.
//
//	bash bench/run.sh                         # end-to-end pass, all workloads
//	bash bench/run.sh -trace 1                # traced pass: per-layer metrics + Chrome traces
//	bash bench/run.sh -selfcheck              # two end-to-end sets, compared against the bounds
//	bash bench/run.sh -workload noh_serial    # one workload in this process (what the driver runs)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outDir holds everything the harness writes: records, traces and the
// served workload's state directories. It is relative to the root of
// the checkout, where run.sh starts the binary.
var outDir = "bench/out"

// sample is one reported metric value with its sample count.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// record is everything one run of one workload measured. Metrics holds
// exactly the contract's metrics for the pass (end_to_end untraced,
// per_layer traced); Extra holds readings outside the contract, such as
// the served client's latencies in the untraced pass.
type record struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Smoke     bool              `json:"smoke,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
	Extra     map[string]sample `json:"extra,omitempty"`
	Env       envBlock          `json:"env"`
}

// run is the state of one workload run in this process.
type run struct {
	record
	units map[string]string
	// deadline is when the end-to-end pass stops repeating its unit of
	// work: -seconds after measuring began.
	deadline time.Time
}

func newRun(workload string, trace int, seed int64, secs int, smoke bool) *run {
	r := &run{
		record: record{
			Workload: workload, Trace: trace, Seed: seed, Seconds: secs, Smoke: smoke,
			Metrics: map[string]sample{}, Extra: map[string]sample{},
		},
		units: map[string]string{},
	}
	if trace == 0 {
		for _, m := range endToEnd {
			r.units[m.Name] = m.Unit
		}
	} else {
		// A layer the workload does not run reads 0.
		for _, m := range perLayer {
			r.units[m.Name] = m.Unit
			r.Metrics[m.Name] = sample{Unit: m.Unit}
		}
	}
	return r
}

// scaled turns a repetition count stated for the nominal run length into
// the count for this run's -seconds, the same way for every fixed count
// in the harness: proportional, never below three, and one in a smoke run.
func (r *run) scaled(n int) int {
	if r.Smoke {
		return 1
	}
	return max(3, n*r.Seconds/runSeconds)
}

// another reports whether the end-to-end pass makes repetition i of its
// unit of work: always the first floor of them (one in a smoke run), then
// for as long as the run's seconds last. Every repetition is the same
// work and the fastest is reported, so the count decides how well the
// host's quiet moments are sampled, not what is timed.
func (r *run) another(i, floor int) bool {
	if r.Smoke {
		return i < 1
	}
	return i < floor || time.Now().Before(r.deadline)
}

// op counts one operation of the workload and, when err is set, its
// failure: a run error, a served job not done, or a failed check.
func (r *run) op(what string, err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, what+": "+err.Error())
		}
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED %s: %v\n", r.Workload, what, err)
	}
}

// set reports a contract metric; its unit comes from the spec tables.
func (r *run) set(name string, v float64, n int) {
	unit, ok := r.units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the spec for this pass")
	}
	r.Metrics[name] = sample{v, unit, n}
}

// note reports a reading outside the contract.
func (r *run) note(name, unit string, v float64, n int) {
	r.Extra[name] = sample{v, unit, n}
}

func (r *run) execute() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	r.Env = environment()
	r.deadline = time.Now().Add(time.Duration(r.Seconds) * time.Second)
	if err := r.measure(); err != nil {
		return err
	}
	// Failures over attempts: 0 on a correct run, so the contract cannot
	// gate it as a share of a parent's median; the result line's correct,
	// attempted and failed carry it to the driver.
	share := float64(r.Failed) / float64(max(r.Attempted, 1))
	if r.Trace == 0 {
		r.note("failed_share", "ratio", share, r.Attempted)
	} else {
		r.set("failed_share", share, r.Attempted)
	}
	return nil
}

func (r *run) measure() error {
	if c, ok := runCases(r.Smoke)[r.Workload]; ok {
		if r.Trace == 0 {
			r.runEndToEnd(c)
			return nil
		}
		return r.runTraced(c)
	}
	if r.Workload != "serve_jobs" {
		return fmt.Errorf("unknown workload %q", r.Workload)
	}
	if r.Trace == 0 {
		return r.serveEndToEnd()
	}
	return r.serveTraced()
}

func recordPath(workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("last.%s.trace%d.json", workload, trace))
}

// report prints every metric by name with its unit and sample count,
// saves the full record, and ends with the one-line result the driver
// reads.
func (r *run) report() error {
	printSamples := func(title string, m map[string]sample) {
		if len(m) == 0 {
			return
		}
		fmt.Printf("%s\n", title)
		for _, name := range sortedKeys(m) {
			s := m[name]
			fmt.Printf("  %-30s %14.6g %-6s n=%d\n", name, s.Value, s.Unit, s.N)
		}
	}
	fmt.Printf("workload %s trace=%d seed=%d seconds=%d: %d attempted, %d failed\n",
		r.Workload, r.Trace, r.Seed, r.Seconds, r.Attempted, r.Failed)
	printSamples("metrics:", r.Metrics)
	printSamples("outside the contract:", r.Extra)

	data, err := json.MarshalIndent(&r.record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(recordPath(r.Workload, r.Trace), data, 0o644); err != nil {
		return err
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]metric{}}
	for name, s := range r.Metrics {
		line.Metrics[name] = metric{s.Value, s.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

var errOversubscribed = errors.New("oversubscribed")

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	smoke     bool
	selfcheck bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and print its result line; empty runs all four, each in a fresh child process")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs (the served job sequence)")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "how long one run measures: a direct-run workload repeats its complete run until they are up, every other count is a fixed function of them")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a Chrome trace per workload")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny meshes, 1 repetition, 6 jobs: exercises every path in seconds, measures nothing")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end pass as two sets of ten seeds, the second in reverse workload order, and fail if a metric's two medians differ by more than its bound")
	flag.Parse()
	if err := o.run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if errors.Is(err, errOversubscribed) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func (o options) run() error {
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("want -seconds >= 1, -trace 0 or 1")
	}
	if o.workload == "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if o.selfcheck {
			return o.selfCheck()
		}
		return o.runAll()
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	// A width-2 workload on one processor would record scheduler noise.
	if p := runtime.GOMAXPROCS(0); p < w.width {
		return fmt.Errorf("%w: workload %s needs %d processors, GOMAXPROCS is %d; nothing recorded", errOversubscribed, w.Name, w.width, p)
	}
	r := newRun(o.workload, o.trace, o.seed, o.seconds, o.smoke)
	if err := r.execute(); err != nil {
		return err
	}
	return r.report()
}
