package bookleaf

// Property tests for the runtime invariant probes: on healthy pure
// Lagrangian runs the conservation audit must stay quiet at a
// per-step drift budget of 1e-12 (the compatible-hydro identity of
// DESIGN.md §3), and deliberately corrupted state must be flagged
// within one sample interval. The tests live in the package so they
// can reach the unexported fault-injection knobs.

import (
	"testing"

	"bookleaf/internal/hydro"
	"bookleaf/internal/obs"
	"bookleaf/internal/typhon"
)

// On Noh and Sod, serial and at 4 ranks, sampling the probes every
// step must record zero violations and a max per-step drift within
// the 1e-12 budget. This pins the probe plumbing (collective mass /
// energy / work reductions) as much as the scheme itself: a probe
// that sampled mid-step or mixed ranks' partial sums would blow the
// budget immediately.
func TestProbesCleanOnLagrangianRuns(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"noh-1rank", Config{Problem: "noh", NX: 16, NY: 16, MaxSteps: 40}},
		{"noh-4rank", Config{Problem: "noh", NX: 16, NY: 16, Ranks: 4, MaxSteps: 40}},
		{"sod-1rank", Config{Problem: "sod", NX: 64, NY: 4, MaxSteps: 40}},
		{"sod-4rank", Config{Problem: "sod", NX: 64, NY: 4, Ranks: 4, MaxSteps: 40}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.ProbeEvery = 1
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.ProbeViolations != 0 {
				t.Fatalf("probe violations = %d on a healthy run", res.ProbeViolations)
			}
			// Every step after the baseline must have produced a record.
			if len(res.Probes) < res.Steps-1 {
				t.Fatalf("probe records = %d for %d steps", len(res.Probes), res.Steps)
			}
			for _, rec := range res.Probes {
				if !rec.Finite {
					t.Fatalf("non-finite state at step %d", rec.Step)
				}
				if rec.DriftPerStep > 1e-12 {
					t.Fatalf("step %d: per-step drift %.3e exceeds 1e-12", rec.Step, rec.DriftPerStep)
				}
			}
			if res.Obs.Counters["probe_violations_total"] != 0 {
				t.Fatalf("probe_violations_total = %d", res.Obs.Counters["probe_violations_total"])
			}
			if got := res.Obs.Counters["probe_samples_total"]; got != int64(len(res.Probes)) {
				t.Fatalf("probe_samples_total = %d, records = %d", got, len(res.Probes))
			}
		})
	}
}

// A finite energy corruption — the kind no NaN sweep can see — must
// trip the conservation audit within one sample interval of the
// injection.
func TestProbeFlagsFiniteEnergyCorruption(t *testing.T) {
	const injectStep, every = 12, 5
	injected := false
	res, err := Run(Config{
		Problem: "sod", NX: 32, NY: 2, MaxSteps: 25,
		ProbeEvery: every,
		testFault: func(rank, step int, s *hydro.State) {
			if step == injectStep && !injected {
				injected = true
				s.Ein[4] *= 1.05 // finite, so CheckFinite stays green
			}
		},
	})
	if err != nil {
		t.Fatalf("finite corruption should not abort the run: %v", err)
	}
	if res.Rollbacks != 0 {
		t.Fatalf("finite corruption triggered rollback (%d); probe test is vacuous", res.Rollbacks)
	}
	if res.ProbeViolations == 0 {
		t.Fatal("corrupted energy never flagged")
	}
	first := -1
	for _, rec := range res.Probes {
		if rec.Violation {
			first = rec.Step
			break
		}
	}
	if first < 0 || first > injectStep+every {
		t.Fatalf("first violation at step %d, want within one interval of step %d", first, injectStep)
	}
}

// The same audit in parallel: corrupt one rank's state and require the
// collective reductions to surface it — a probe that only watched the
// local subdomain sum on rank 0 would miss rank 2's corruption.
func TestProbeFlagsParallelCorruption(t *testing.T) {
	const injectStep, every = 12, 5
	injected := false // only touched by rank 2's goroutine
	res, err := Run(Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 4, MaxSteps: 25,
		ProbeEvery: every,
		testFault: func(rank, step int, s *hydro.State) {
			if rank == 2 && step == injectStep && !injected {
				injected = true
				s.Ein[4] *= 1.05
			}
		},
	})
	if err != nil {
		t.Fatalf("finite corruption should not abort the run: %v", err)
	}
	if res.ProbeViolations == 0 {
		t.Fatal("corrupted energy never flagged")
	}
	first := -1
	for _, rec := range res.Probes {
		if rec.Violation {
			first = rec.Step
			break
		}
	}
	if first < 0 || first > injectStep+every {
		t.Fatalf("first violation at step %d, want within one interval of step %d", first, injectStep)
	}
}

// A NaN injected into a halo message (a FaultPlan corruption) is
// caught by the health sentinel before the next collective sample; the
// probe records the non-finite violation on the corrupted step even
// though rollback then repairs the state. The corruption is transient
// (Once): each epoch counts messages from 1, so without Once it would
// return after every rollback (TestCorruptedHaloMessagePersists).
func TestProbeRecordsHaloCorruptionBeforeRollback(t *testing.T) {
	res, err := Run(Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 4, MaxSteps: 25,
		ProbeEvery: 5,
		testFaultPlan: &typhon.FaultPlan{Faults: []typhon.Fault{
			{Rank: 1, Msg: 5, Kind: typhon.FaultCorrupt, Once: true},
		}},
	})
	if err != nil {
		t.Fatalf("transient halo corruption not recovered: %v", err)
	}
	if res.Rollbacks == 0 {
		t.Fatal("halo corruption did not trigger rollback; injection is vacuous")
	}
	if res.ProbeViolations == 0 {
		t.Fatal("halo corruption left no probe violation record")
	}
	found := false
	for _, rec := range res.Probes {
		if rec.Violation && !rec.Finite {
			found = true
		}
	}
	if !found {
		t.Fatal("no non-finite violation record despite rollback")
	}
	if res.Obs.Counters["probe_nonfinite_total"] == 0 {
		t.Fatal("probe_nonfinite_total counter not incremented")
	}
	// After rollback the conservation samples must be clean again.
	// (Record order is rank 0's samples followed by other ranks'
	// non-finite notes, so select the latest sample by step.)
	var last *obs.ProbeRecord
	for i := range res.Probes {
		rec := &res.Probes[i]
		if rec.Finite && (last == nil || rec.Step > last.Step) {
			last = rec
		}
	}
	if last == nil {
		t.Fatal("no conservation samples recorded")
	}
	if last.Violation {
		t.Fatalf("final sample still in violation: %+v", *last)
	}
}
