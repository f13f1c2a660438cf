package bookleaf

// End-to-end tests of the supervision ladder (DESIGN.md §12): rank
// replacement from the in-memory Memento, transient epoch retry,
// retry-budget exhaustion with a final checkpoint, and online elastic
// repartitioning. They live in the package so they can arm the
// unexported fault-injection knobs.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bookleaf/internal/checkpoint"
	"bookleaf/internal/hydro"
	"bookleaf/internal/typhon"
)

// TestSuperviseReplacementSweep is the tentpole acceptance test: a
// persistent-looking single-rank fault (a rank panic — the goroutine is
// gone, so retrying the incarnation is pointless) at every supported
// schedule must complete via rank replacement with ZERO collective
// rollbacks, and the final state must match the unfaulted run bitwise:
// replacement restores from the collective's last in-memory Memento,
// which covers every evolving field including ghosts, so the replay is
// exact. A fleet of one sends no messages for a message fault to ride
// on, so there rank 0 panics from the step hook instead, on a two-wide
// pool the replacement builds afresh. The two ALE
// rows fault well after the remap has started rewriting masses: the
// replacement's fresh state has the t = 0 masses, and only a memento
// that carries the remapped ones makes its replay exact. The smoothed
// row also moves the mesh, so the memento must carry the relaxed
// coordinates too.
func TestSuperviseReplacementSweep(t *testing.T) {
	type row struct {
		ranks int
		ale   string
		msg   int64 // the victim's send that panics
	}
	var rows []row
	for _, ranks := range []int{1, 2, 4, 7} {
		rows = append(rows, row{ranks, "", 7})
	}
	rows = append(rows, row{2, "eulerian", 60}, row{2, "smoothed", 60})
	for _, r := range rows {
		ranks := r.ranks
		name := fmt.Sprintf("ranks=%d", ranks)
		if r.ale != "" {
			name += "/ale=" + r.ale
		}
		t.Run(name, func(t *testing.T) {
			base := Config{
				Problem: "sod", NX: 64, NY: 4, MaxSteps: 20,
				Ranks: ranks, ALE: r.ale,
			}
			ref, err := runBoundedResult(t, base)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}

			cfg := base
			cfg.Supervise = &SuperviseConfig{Enabled: true}
			victim := 1
			if ranks > 1 {
				cfg.testFaultPlan = &typhon.FaultPlan{Faults: []typhon.Fault{
					{Rank: victim, Msg: r.msg, Kind: typhon.FaultPanic, Once: true},
				}}
			} else {
				victim = 0
				fired := false // touched by one incarnation of rank 0 at a time
				cfg.testFault = func(rank, step int, s *hydro.State) {
					if step == 4 && !fired {
						fired = true
						panic("injected rank fault")
					}
				}
				cfg.Threads = 2
			}
			res, err := runBoundedResult(t, cfg)
			if err != nil {
				t.Fatalf("supervised run: %v", err)
			}

			if res.Replacements != 1 || res.SupRetries != 0 {
				t.Errorf("replacements=%d retries=%d, want 1/0 (panic goes straight to replacement)",
					res.Replacements, res.SupRetries)
			}
			if res.Rollbacks != 0 {
				t.Errorf("rollbacks=%d, want 0: replacement must not consume the rollback ladder",
					res.Rollbacks)
			}
			equivalent(t, res, ref, bitwise)

			// The replaced rank's confirmed work stays in its rank
			// id's registry and the replayed steps were only pending
			// (never confirmed) when the epoch died, so the merged
			// step counter is exact — no double counting.
			if got, want := res.Obs.Counters["steps_total"], int64(res.Steps*ranks); got != want {
				t.Errorf("merged steps_total = %d, want %d (replayed steps must not double-count)",
					got, want)
			}
			if got := res.Obs.Counters["supervise_replace_total"]; got != 1 {
				t.Errorf("supervise_replace_total = %d, want 1", got)
			}
			if g := res.Obs.Gauges[fmt.Sprintf("supervise_incarnation_rank%d", victim)]; g != 1 {
				t.Errorf("incarnation gauge of rank %d = %v, want 1", victim, g)
			}
		})
	}
}

// TestSuperviseTransientRetry: a one-shot truncated halo message is a
// transient communication fault — one epoch retry from the healthy
// point, no replacement, and a bitwise-identical answer. Under ALE the
// fault comes after several remaps, so the healthy point every rank
// returns to includes masses the remap has rewritten since.
func TestSuperviseTransientRetry(t *testing.T) {
	for _, tc := range []struct {
		ale string
		msg int64
	}{{"", 5}, {"eulerian", 60}} {
		t.Run("ale="+tc.ale, func(t *testing.T) {
			base := Config{Problem: "sod", NX: 64, NY: 4, MaxSteps: 20, Ranks: 4, ALE: tc.ale}
			ref, err := runBoundedResult(t, base)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}

			cfg := base
			cfg.Supervise = &SuperviseConfig{Enabled: true}
			cfg.testFaultPlan = &typhon.FaultPlan{Faults: []typhon.Fault{
				{Rank: 1, Msg: tc.msg, Kind: typhon.FaultTruncate, Once: true},
			}}
			res, err := runBoundedResult(t, cfg)
			if err != nil {
				t.Fatalf("supervised run: %v", err)
			}
			if res.SupRetries != 1 || res.Replacements != 0 || res.Rollbacks != 0 {
				t.Errorf("retries=%d replacements=%d rollbacks=%d, want 1/0/0",
					res.SupRetries, res.Replacements, res.Rollbacks)
			}
			equivalent(t, res, ref, bitwise)
			if got := res.Obs.Counters["supervise_retry_total"]; got != 1 {
				t.Errorf("supervise_retry_total = %d, want 1", got)
			}
		})
	}
}

// TestSuperviseLadderExhaustion walks the full ladder to its last rung:
// a rank that panics on the same send in every incarnation (a Once-less
// fault re-fires each epoch — the model of a persistent hardware fault)
// is replaced once, drains the replacement budget, and the run aborts —
// leaving a valid, loadable checkpoint of the last healthy point behind.
func TestSuperviseLadderExhaustion(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "abort.ck")
	cfg := Config{
		Problem: "sod", NX: 64, NY: 4, MaxSteps: 20, Ranks: 4,
		Checkpoint: ck,
		Supervise:  &SuperviseConfig{Enabled: true},
		testFaultPlan: &typhon.FaultPlan{Faults: []typhon.Fault{
			{Rank: 1, Msg: 7, Kind: typhon.FaultPanic}, // every incarnation
		}},
	}
	err := runBounded(t, cfg)
	if err == nil {
		t.Fatal("expected the ladder to exhaust and abort")
	}
	if !errors.Is(err, typhon.ErrAborted) {
		t.Fatalf("error does not match ErrAborted: %v", err)
	}
	var pe *typhon.RankPanicError
	if !errors.As(err, &pe) || pe.Rank != 1 {
		t.Fatalf("root cause is not rank 1's panic: %v", err)
	}

	// The abort path must leave a restartable dump: load it and run the
	// remaining steps without the fault.
	f, err := os.Open(ck)
	if err != nil {
		t.Fatalf("no final checkpoint written: %v", err)
	}
	snap, err := checkpoint.Read(f)
	f.Close()
	if err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if snap.StepCount < 1 {
		t.Fatalf("checkpoint at step %d: the fleet made healthy progress before aborting", snap.StepCount)
	}
	resumed, err := runBoundedResult(t, Config{
		Problem: "sod", NX: 64, NY: 4, MaxSteps: 20, Ranks: 4, Resume: ck,
	})
	if err != nil {
		t.Fatalf("resume from the abort checkpoint: %v", err)
	}
	if resumed.Steps != 20 {
		t.Fatalf("resumed run stopped at step %d, want 20", resumed.Steps)
	}
}

// TestSuperviseForcedRepartition migrates a moving-mesh ALE run onto a
// fresh partition mid-flight — growing and shrinking the fleet — and
// requires the unperturbed answer back under the matrix's smoothed-ranks
// contract: a new partition is a new gather order, whose round-off the
// smoothed relaxation amplifies (observed ≤ 4e-9). Conservation stays
// at round-off.
func TestSuperviseForcedRepartition(t *testing.T) {
	for _, tc := range []struct {
		name            string
		ranks, newRanks int
	}{
		{"grow-4-to-7", 4, 7},
		{"shrink-4-to-2", 4, 2},
		{"same-count", 4, 0}, // re-decompose the moved mesh on 4 ranks
		{"grow-1-to-3", 1, 3},
		{"shrink-4-to-1", 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := Config{
				Problem: "noh", NX: 16, NY: 16, MaxSteps: 24,
				Ranks: tc.ranks, ALE: "smoothed", ALEFreq: 2,
			}
			ref, err := runBoundedResult(t, base)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			cfg := base
			cfg.Supervise = &SuperviseConfig{
				Enabled:      true,
				RepartAtStep: 12,
				RepartRanks:  tc.newRanks,
			}
			res, err := runBoundedResult(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Repartitions != 1 {
				t.Fatalf("repartitions = %d, want 1", res.Repartitions)
			}
			want := tc.newRanks
			if want == 0 {
				want = base.Ranks
			}
			if res.FinalRanks != want || res.Ranks != base.Ranks {
				t.Fatalf("ranks %d -> %d, want %d -> %d", res.Ranks, res.FinalRanks, base.Ranks, want)
			}
			equivalent(t, res, ref, smoothedRanks)
			// The smoothed remap carries its own (deterministic) energy
			// drift; repartitioning must not add to it.
			if d := math.Abs(res.EnergyDrift() - ref.EnergyDrift()); d > 1e-9 {
				t.Errorf("repartition changed the energy audit by %v", d)
			}
			if got := res.Obs.Counters["supervise_repart_total"]; got != 1 {
				t.Errorf("supervise_repart_total = %d, want 1", got)
			}
		})
	}
}

// TestReorderSuperviseRepartition: elastic repartitioning re-splits the
// renumbered global mesh, so locality survives a mid-run rank-count
// change and the run still lands on the unperturbed answer.
func TestReorderSuperviseRepartition(t *testing.T) {
	base := Config{
		Problem: "noh", NX: 16, NY: 16, MaxSteps: 24,
		Ranks: 4, ALE: "smoothed", ALEFreq: 2, Reorder: "hilbert",
	}
	ref, err := runBoundedResult(t, base)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	for _, newRanks := range []int{7, 2} {
		t.Run(fmt.Sprintf("repart-to-%d", newRanks), func(t *testing.T) {
			cfg := base
			cfg.Supervise = &SuperviseConfig{
				Enabled:      true,
				RepartAtStep: 12,
				RepartRanks:  newRanks,
			}
			res, err := runBoundedResult(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Repartitions != 1 || res.FinalRanks != newRanks {
				t.Fatalf("repartitions=%d final ranks=%d, want 1/%d",
					res.Repartitions, res.FinalRanks, newRanks)
			}
			equivalent(t, res, ref, smoothedRanks)
		})
	}
}

// TestSuperviseMidRunMetricsSurviveRepartition: the metrics a Control
// publishes mid-run are rank 0's registry, which belongs to the rank id
// for the whole run, so the repartition at step 8 loses neither the
// probe samples nor the step count. At step 32 the supervised run
// publishes what the unsupervised one does: seven probe samples (steps
// 4 to 28; step 32's is taken after the publication) and 32 steps.
func TestSuperviseMidRunMetricsSurviveRepartition(t *testing.T) {
	for _, sup := range []*SuperviseConfig{nil, {Enabled: true, RepartAtStep: 8}} {
		t.Run(fmt.Sprintf("supervise=%v", sup != nil), func(t *testing.T) {
			cfg := Config{
				Problem: "sod", NX: 64, NY: 4, Ranks: 2, MaxSteps: 32, ProbeEvery: 4,
				Supervise: sup, Control: &Control{},
			}
			res, err := runBoundedResult(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sup != nil && res.Repartitions != 1 {
				t.Fatalf("repartitions = %d, want 1", res.Repartitions)
			}
			m := cfg.Control.Metrics()
			if m == nil {
				t.Fatal("no mid-run metrics published")
			}
			if got := m.Counters["probe_samples_total"]; got != 7 {
				t.Errorf("published probe_samples_total = %d, want 7", got)
			}
			if got := m.Counters["steps_total"]; got != 32 {
				t.Errorf("published steps_total = %d, want 32", got)
			}
		})
	}
}

// TestSuperviseOffIsInert: a nil or disabled Supervise block recovers
// nothing — a rank panic is the run's error.
func TestSuperviseOffIsInert(t *testing.T) {
	cfg := Config{
		Problem: "sod", NX: 64, NY: 4, MaxSteps: 20, Ranks: 4,
		Supervise: &SuperviseConfig{Enabled: false},
		testFaultPlan: &typhon.FaultPlan{Faults: []typhon.Fault{
			{Rank: 1, Msg: 7, Kind: typhon.FaultPanic, Once: true},
		}},
	}
	err := runBounded(t, cfg)
	if err == nil {
		t.Fatal("disabled supervision must not recover a rank panic")
	}
	var pe *typhon.RankPanicError
	if !errors.As(err, &pe) || pe.Rank != 1 {
		t.Fatalf("want rank 1's panic surfaced fatally, got: %v", err)
	}
}

// TestSuperviseTimersAccumulatePerRankID pins how a rank id's kernel
// clock carries through supervision: rank 0 dies early and is replaced,
// then the fleet shrinks to that one rank at repart_at. Result.Calls is
// the maximum over rank ids, so the full-run counts it reports can only
// come from rank 0's clock running on across its replacement — a clock
// restarted with the new incarnation would miss the steps before the
// fault, and rank 1's stops at the repartition. getacc and alegetmesh
// read 21 over 20 steps by Result.Calls's stated policy: it counts the
// intervals that were run, and the interrupted step ran one of each
// before its replay ran them again.
func TestSuperviseTimersAccumulatePerRankID(t *testing.T) {
	cfg := Config{
		Problem: "sod", NX: 64, NY: 4, MaxSteps: 20, Ranks: 2, ALE: "eulerian",
		Supervise: &SuperviseConfig{Enabled: true, RepartAtStep: 12, RepartRanks: 1},
		testFaultPlan: &typhon.FaultPlan{Faults: []typhon.Fault{
			{Rank: 0, Msg: 7, Kind: typhon.FaultPanic, Once: true},
		}},
	}
	res, err := runBoundedResult(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replacements != 1 || res.Repartitions != 1 || res.FinalRanks != 1 {
		t.Fatalf("replacements=%d repartitions=%d final ranks=%d, want 1/1/1",
			res.Replacements, res.Repartitions, res.FinalRanks)
	}
	// The run is deterministic, so the counts are exact.
	want := map[string]int64{
		"aleadvect": 20, "alegetfvol": 20, "alegetmesh": 21, "alestep": 20, "aleupdate": 20,
		"comms": 63, "getacc": 21, "getdt": 20, "lagupdate": 42, "qforce": 42,
	}
	if !reflect.DeepEqual(res.Calls, want) {
		t.Errorf("calls = %v, want %v", res.Calls, want)
	}
	for name := range want {
		if _, ok := res.Timers[name]; !ok {
			t.Errorf("timer %q missing from Result.Timers", name)
		}
	}
	if len(res.Timers) != len(want) {
		t.Errorf("Result.Timers has %d names, want %d: %v", len(res.Timers), len(want), res.Timers)
	}
}
