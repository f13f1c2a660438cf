package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// results is what the all-workloads modes write: the latest record of
// each workload and, after -selfcheck, how well two sets agreed.
type results struct {
	Env           envBlock                      `json:"env"`
	Seed          int64                         `json:"seed"`
	Seconds       int                           `json:"seconds"`
	Trace         int                           `json:"trace"`
	Smoke         bool                          `json:"smoke,omitempty"`
	Workloads     map[string]*record            `json:"workloads"`
	NotRecorded   map[string]string             `json:"not_recorded,omitempty"`
	Repeatability map[string]map[string]*agreed `json:"repeatability,omitempty"`
}

// agreed compares one metric on one workload across the two sets.
type agreed struct {
	Unit    string       `json:"unit"`
	Sets    [2][]float64 `json:"sets"`
	Medians [2]float64   `json:"medians"`
	// Spreads is each set's interquartile distance over its median.
	Spreads [2]float64 `json:"spreads"`
	// Diff is |median2 - median1| / median1; Bound is 0 for a reading
	// outside the contract, which is reported but gates nothing.
	Diff  float64 `json:"diff"`
	Bound float64 `json:"bound"`
	OK    bool    `json:"ok"`
}

// child runs one workload in a fresh process, so it has its own peak
// RSS and its own garbage-collection history, and returns its record.
func (o options) child(workload string, seed int64, trace int) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace), "-smoke="+strconv.FormatBool(o.smoke))
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() == 3 {
			return nil, errOversubscribed
		}
		return nil, fmt.Errorf("workload %s: %w", workload, err)
	}
	data, err := os.ReadFile(recordPath(workload, trace))
	if err != nil {
		return nil, err
	}
	rec := new(record)
	return rec, json.Unmarshal(data, rec)
}

// writeResults saves what an all-workloads mode measured.
func writeResults(res *results) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", path)
	return nil
}

// runAll runs every workload once and writes the combined results.
func (o options) runAll() error {
	res := &results{Env: environment(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke,
		Workloads: map[string]*record{}, NotRecorded: map[string]string{}}
	failed := 0
	for _, w := range workloads {
		rec, err := o.child(w.Name, o.seed, o.trace)
		if errors.Is(err, errOversubscribed) {
			res.NotRecorded[w.Name] = "oversubscribed"
			continue
		}
		if err != nil {
			return err
		}
		res.Workloads[w.Name] = rec
		failed += rec.Failed
	}
	if err := writeResults(res); err != nil {
		return err
	}
	if failed > 0 || len(res.NotRecorded) > 0 {
		return fmt.Errorf("%d operations failed, %d workloads not recorded", failed, len(res.NotRecorded))
	}
	return nil
}

// selfCheckRuns is how many runs, on consecutive seeds, each set of the
// self-check makes of every workload: the driver's acceptance test, and
// what the bounds in spec.go were validated with.
const selfCheckRuns = 10

// selfCheck runs the end-to-end pass as two sets back to back, the
// second in reverse workload order, and fails when the sets' medians of
// a gated metric differ by more than the metric's bound or a set's
// quartile spread exceeds it.
func (o options) selfCheck() error {
	const runs = selfCheckRuns
	res := &results{Env: environment(), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
		Workloads: map[string]*record{}, Repeatability: map[string]map[string]*agreed{}}
	bounds := map[string]float64{}
	for _, m := range endToEnd {
		bounds[m.Name] = m.Bound
	}
	failed := 0
	for set := 0; set < 2; set++ {
		order := slices.Clone(workloads)
		if set == 1 {
			slices.Reverse(order)
		}
		for i := 0; i < runs; i++ {
			for _, w := range order {
				rec, err := o.child(w.Name, o.seed+int64(i), 0)
				if err != nil {
					return err
				}
				res.Workloads[w.Name] = rec
				failed += rec.Failed
				byMetric := res.Repeatability[w.Name]
				if byMetric == nil {
					byMetric = map[string]*agreed{}
					res.Repeatability[w.Name] = byMetric
				}
				for _, group := range []map[string]sample{rec.Metrics, rec.Extra} {
					for name, s := range group {
						a := byMetric[name]
						if a == nil {
							a = &agreed{Unit: s.Unit, Bound: bounds[name]}
							byMetric[name] = a
						}
						a.Sets[set] = append(a.Sets[set], s.Value)
					}
				}
			}
		}
	}
	disagreed := 0
	fmt.Printf("\n%-16s %-18s %12s %12s %8s %8s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, w := range workloads {
		for _, name := range sortedKeys(res.Repeatability[w.Name]) {
			a := res.Repeatability[w.Name][name]
			a.Medians = [2]float64{median(a.Sets[0]), median(a.Sets[1])}
			if a.Medians[0] != 0 {
				a.Diff = math.Abs(a.Medians[1]-a.Medians[0]) / math.Abs(a.Medians[0])
			}
			a.Spreads = [2]float64{spread(a.Sets[0]), spread(a.Sets[1])}
			// As the driver judges: setup_s by its medians alone.
			a.OK = a.Bound == 0 || (a.Diff <= a.Bound && (name == "setup_s" || max(a.Spreads[0], a.Spreads[1]) <= a.Bound))
			verdict := ""
			switch {
			case a.Bound == 0:
				verdict = "(not gated)"
			case !a.OK:
				verdict = "DISAGREE"
				disagreed++
			}
			fmt.Printf("%-16s %-18s %12.6g %12.6g %7.2f%% %7.2f%% %s  spreads %.2f%% %.2f%%\n", w.Name, name,
				a.Medians[0], a.Medians[1], 100*a.Diff, 100*a.Bound, verdict, 100*a.Spreads[0], 100*a.Spreads[1])
		}
	}
	if err := writeResults(res); err != nil {
		return err
	}
	if failed > 0 || disagreed > 0 {
		return fmt.Errorf("selfcheck: %d operations failed, %d gated metrics disagree between the sets", failed, disagreed)
	}
	return nil
}
