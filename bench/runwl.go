package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"bookleaf"
	"bookleaf/internal/exact"
)

// runCase is one of the three workloads that call bookleaf.Run directly.
type runCase struct {
	cfg bookleaf.Config
	// setupReps one-step runs give setup_s, at the nominal run length; a
	// smoke run makes one. Complete runs then fill the rest of the run's
	// seconds and give solve_s.
	setupReps int
	// Recorded facts a correct run reproduces: the deterministic step
	// count, the energy-drift ceiling, and (Sod only) the density L1
	// error against the exact Riemann solution, matched within 10%.
	// Zero disables a check; smoke runs leave steps and sodL1 zero.
	steps    int
	driftMax float64
	sodL1    float64
	// massTol is the relative mass-conservation tolerance: round-off for
	// a serial sum, looser where two ranks sum 32768 terms in another
	// order than the t=0 audit did.
	massTol float64
}

// minSolveReps complete runs are made however slow the host is.
const minSolveReps = 3

// A complete run is about 0.3 s and is repeated for the whole of the
// run's seconds: the shared host slows down in bursts with sub-second
// quiet gaps between them, and the fastest of a hundred runs short enough
// to fit a gap repeats where the fastest of sixteen one-second runs did
// not (see README.md, "Steadiness").
func runCases(smoke bool) map[string]runCase {
	if smoke {
		return map[string]runCase{
			"noh_serial":     {cfg: bookleaf.Config{Problem: "noh", NX: 16, NY: 16, TEnd: 0.1}, driftMax: 1e-9, massTol: 1e-12},
			"sod_ale_hybrid": {cfg: bookleaf.Config{Problem: "sod", NX: 64, NY: 4, TEnd: 0.05, ALE: "eulerian", ALEFreq: 1, Threads: 2}, driftMax: 5e-3, massTol: 1e-12},
			"sod_32k_flat":   {cfg: bookleaf.Config{Problem: "sod", NX: 128, NY: 16, Ranks: 2, Reorder: "hilbert", Partitioner: "rcb", MaxSteps: 10}, driftMax: 1e-9, massTol: 1e-12},
		}
	}
	return map[string]runCase{
		"noh_serial": {
			cfg:       bookleaf.Config{Problem: "noh", NX: 100, NY: 100, TEnd: 0.003},
			setupReps: 30, steps: 99, driftMax: 1e-9, massTol: 1e-12,
		},
		"sod_ale_hybrid": {
			cfg:       bookleaf.Config{Problem: "sod", NX: 1600, NY: 8, TEnd: 0.001, ALE: "eulerian", ALEFreq: 1, Threads: 2},
			setupReps: 30, steps: 56, driftMax: 5e-3, sodL1: 1.91570e-4, massTol: 1e-12,
		},
		"sod_32k_flat": {
			cfg:       bookleaf.Config{Problem: "sod", NX: 1024, NY: 32, Ranks: 2, Reorder: "hilbert", Partitioner: "rcb", MaxSteps: 40},
			setupReps: 30, steps: 40, driftMax: 1e-9, sodL1: 2.59913e-4, massTol: 1e-10,
		},
	}
}

// sodL1 is the mean absolute density error of a Sod result against the
// exact Riemann solution at the time the run reached.
func sodL1(res *bookleaf.Result) (float64, error) {
	rp := exact.Sod(0.5)
	var sampleErr error
	xs, rho := res.XProfile(res.Rho)
	l1 := bookleaf.L1Error(xs, rho, func(x float64) float64 {
		s, err := rp.Sample(x, res.Time)
		if err != nil {
			sampleErr = err
		}
		return s.Rho
	})
	return l1, sampleErr
}

// verify checks a completed run against the case's recorded facts.
func (c runCase) verify(res *bookleaf.Result) error {
	if c.steps > 0 && res.Steps != c.steps {
		return fmt.Errorf("%d steps, want %d", res.Steps, c.steps)
	}
	if math.Abs(res.MassFinal-res.Mass0) > c.massTol*math.Abs(res.Mass0) {
		return fmt.Errorf("mass %v -> %v", res.Mass0, res.MassFinal)
	}
	if d := res.EnergyDrift(); !(d < c.driftMax) {
		return fmt.Errorf("energy drift %v, want < %v", d, c.driftMax)
	}
	if res.Rollbacks != 0 {
		return fmt.Errorf("%d rollbacks", res.Rollbacks)
	}
	if c.sodL1 > 0 {
		l1, err := sodL1(res)
		if err != nil {
			return fmt.Errorf("exact Sod solution: %w", err)
		}
		if math.Abs(l1-c.sodL1) > 0.1*c.sodL1 {
			return fmt.Errorf("Sod density L1 error %v, recorded %v", l1, c.sodL1)
		}
	}
	return nil
}

// timedRun is one bookleaf.Run with its wall and process CPU time. The
// collection before it keeps one repetition's garbage out of the next.
func timedRun(cfg bookleaf.Config) (res *bookleaf.Result, wall, cpu time.Duration, err error) {
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	res, err = bookleaf.Run(cfg)
	return res, time.Since(t0), cpuTime() - c0, err
}

// runEndToEnd is the untraced pass of a direct-run workload: set-up
// cost from one-step runs (the first, cold one doubles as the warm-up),
// then time to solution from complete, verified runs until the run's
// seconds are up.
func (r *run) runEndToEnd(c runCase) {
	one := c.cfg
	one.MaxSteps = 1
	var setup, solve, cpu []time.Duration
	for i := 0; i < r.scaled(c.setupReps); i++ {
		res, wall, _, err := timedRun(one)
		if err == nil && res.Steps != 1 {
			err = fmt.Errorf("one-step run took %d steps", res.Steps)
		}
		r.op("setup run", err)
		setup = append(setup, wall)
	}
	for i := 0; r.another(i, minSolveReps); i++ {
		res, wall, c1, err := timedRun(c.cfg)
		if err == nil {
			err = c.verify(res)
		}
		r.op("solve run", err)
		solve = append(solve, wall)
		cpu = append(cpu, c1)
		if res != nil && i == 0 {
			// What the recorded facts are re-recorded from.
			r.note("steps", "count", float64(res.Steps), 1)
			r.note("energy_drift", "ratio", res.EnergyDrift(), 1)
			if res.Problem == "sod" {
				l1, _ := sodL1(res)
				r.note("sod_l1", "ratio", l1, 1)
			}
		}
	}
	r.setTimes(setup, solve)
	r.note("cpu_s", "s", slices.Min(seconds(cpu)), len(cpu))
}

// setTimes reports the run's two gated times and its peak memory. Each
// time is the wall of the fastest of its repetitions: the host is
// shared, and the fastest repetition is the wall time that repeats
// (README.md, "Steadiness"). The issue's medians are beside them in the
// record.
func (r *run) setTimes(setup, solve []time.Duration) {
	r.set("setup_s", slices.Min(seconds(setup)), len(setup))
	r.set("solve_s", slices.Min(seconds(solve)), len(solve))
	r.set("peak_rss_mb", peakRSSMiB(), 1)
	r.note("setup_median_s", "s", median(seconds(setup)), len(setup))
	r.note("solve_median_s", "s", median(seconds(solve)), len(solve))
}
