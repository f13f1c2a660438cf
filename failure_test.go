package bookleaf

// Failure-injection tests live in the package itself so they can reach
// the unexported test knobs.

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"bookleaf/internal/hydro"
	"bookleaf/internal/typhon"
)

// A rank that hits a timestep collapse mid-run must bring the whole
// parallel run down cleanly — an error return, not a deadlock: the
// failing rank aborts the communicator, which unblocks its peers
// wherever they wait. Rollback-retry is off so the collapse is
// immediately fatal.
func TestParallelFailurePropagatesCleanly(t *testing.T) {
	cfg := Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 4, testRetryBudget: -1,
		testDtMin: 1e-3, // unreachably large once the shock forms
	}
	err := runBounded(t, cfg)
	if err == nil {
		t.Fatal("expected a timestep-collapse error")
	}
	if !strings.Contains(err.Error(), "collapsed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// The same failure with the Eulerian remap active: peers blocked in a
// remap exchange unblock too.
func TestParallelFailureWithRemapCleanly(t *testing.T) {
	cfg := Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 3, ALE: "eulerian", testRetryBudget: -1,
		testDtMin: 1e-3,
	}
	if err := runBounded(t, cfg); err == nil {
		t.Fatal("expected a timestep-collapse error")
	}
}

// With the retry budget enabled, a persistent collapse is retried with a
// halved timestep cap until the budget runs out, then still fails with
// the collapse as the root cause on every rank.
func TestParallelCollapseExhaustsRetryBudget(t *testing.T) {
	cfg := Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 4,
		testDtMin: 1e-3,
	}
	err := runBounded(t, cfg)
	if err == nil {
		t.Fatal("expected a timestep-collapse error after retries")
	}
	if !strings.Contains(err.Error(), "collapsed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSerialFailureReportsStep(t *testing.T) {
	_, err := Run(Config{Problem: "sod", NX: 32, NY: 2, testRetryBudget: -1, testDtMin: 1e-3})
	if err == nil {
		t.Fatal("expected failure")
	}
	if !strings.Contains(err.Error(), "step") {
		t.Fatalf("error lacks step context: %v", err)
	}
}

// A single transient NaN — the kind a corrupted message or a marginal
// remap produces — must be absorbed by rollback-retry: the run restores
// the last rolling snapshot, halves the timestep cap and completes.
func TestSerialRollbackRecoversTransientNaN(t *testing.T) {
	injected := false
	res, err := Run(Config{
		Problem: "sod", NX: 32, NY: 2, MaxSteps: 25,
		testFault: func(rank, step int, s *hydro.State) {
			if step == 14 && !injected {
				injected = true
				s.Rho[3] = math.NaN()
			}
		},
	})
	if err != nil {
		t.Fatalf("transient NaN not recovered: %v", err)
	}
	if res.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", res.Rollbacks)
	}
	if res.Steps != 25 {
		t.Fatalf("run stopped at step %d", res.Steps)
	}
}

// A NaN that reappears on every retry exhausts the budget and aborts
// with the offending field, element and step in the error.
func TestSerialRollbackBudgetExhausts(t *testing.T) {
	res, err := Run(Config{
		Problem: "sod", NX: 32, NY: 2, MaxSteps: 25, testRetryBudget: 2,
		testFault: func(rank, step int, s *hydro.State) {
			if step == 14 {
				s.Ein[5] = math.Inf(1)
			}
		},
	})
	if err == nil {
		t.Fatalf("persistent NaN completed: %+v", res)
	}
	var nf *hydro.ErrNonFinite
	if !errors.As(err, &nf) || nf.Field != "ein" || nf.Global != 5 {
		t.Fatalf("error lacks field/element context: %v", err)
	}
	if !strings.Contains(err.Error(), "step 14") {
		t.Fatalf("error lacks step context: %v", err)
	}
}

// Parallel flavour of the transient-NaN recovery: one rank trips the
// health sentinel, all ranks roll back collectively and the run
// completes with the rollback counted once.
func TestParallelRollbackRecoversTransientNaN(t *testing.T) {
	injected := false // only touched by rank 1's goroutine
	res, err := Run(Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 4, MaxSteps: 25,
		testFault: func(rank, step int, s *hydro.State) {
			if rank == 1 && step == 14 && !injected {
				injected = true
				s.U[2] = math.NaN()
			}
		},
	})
	if err != nil {
		t.Fatalf("transient NaN not recovered: %v", err)
	}
	if res.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", res.Rollbacks)
	}
	if res.Steps != 25 {
		t.Fatalf("run stopped at step %d", res.Steps)
	}
}

// Parallel budget exhaustion must end with the health error from the
// faulty rank, not a deadlock and not a peer's abort echo.
func TestParallelRollbackBudgetExhausts(t *testing.T) {
	err := runBounded(t, Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 4, MaxSteps: 25, testRetryBudget: 2,
		testFault: func(rank, step int, s *hydro.State) {
			if rank == 2 && step == 14 {
				s.Rho[0] = math.NaN()
			}
		},
	})
	if err == nil {
		t.Fatal("persistent NaN completed")
	}
	var nf *hydro.ErrNonFinite
	if !errors.As(err, &nf) || nf.Field != "rho" {
		t.Fatalf("error lacks health context: %v", err)
	}
	if !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("error lacks rank context: %v", err)
	}
}

// An injected rank panic mid-exchange poisons the communicator: peers
// blocked in Recv or a reduction unwind with ErrAborted and the run
// returns the panic as the root cause, within the deadline.
func TestInjectedPanicAbortsParallelRun(t *testing.T) {
	err := runBounded(t, Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 4,
		testFaultPlan: &typhon.FaultPlan{Faults: []typhon.Fault{
			{Rank: 1, Msg: 7, Kind: typhon.FaultPanic},
		}},
	})
	if err == nil {
		t.Fatal("expected an abort error")
	}
	if !errors.Is(err, typhon.ErrAborted) {
		t.Fatalf("error does not match ErrAborted: %v", err)
	}
	var rp *typhon.RankPanicError
	if !errors.As(err, &rp) || rp.Rank != 1 {
		t.Fatalf("root cause is not rank 1's panic: %v", err)
	}
}

// A panic inside a threaded region on a worker's chunk (an index fault
// in a kernel body, say) ends the run the way a panic on the rank's own
// goroutine does: Run returns a *RankPanicError carrying the value, at
// one rank and at two, and the process survives.
func TestInjectedPoolWorkerPanicFailsRun(t *testing.T) {
	const boom = "element fault on a worker chunk"
	for _, ranks := range []int{1, 2} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			err := runBounded(t, Config{
				Problem: "sod", NX: 128, NY: 8, Ranks: ranks, Threads: 2, MaxSteps: 10,
				testFault: func(rank, step int, s *hydro.State) {
					if rank != ranks-1 || step != 3 {
						return
					}
					if s.Pool.NumChunks(s.Mesh.NEl) < 2 {
						t.Errorf("rank %d: %d elements run in one chunk", rank, s.Mesh.NEl)
						return
					}
					s.Pool.For(s.Mesh.NEl, func(lo, hi int) {
						if lo > 0 {
							panic(boom)
						}
					})
				},
			})
			var rp *typhon.RankPanicError
			if !errors.As(err, &rp) || rp.Rank != ranks-1 || rp.Value != boom {
				t.Fatalf("want rank %d's worker panic as a *RankPanicError, got %v", ranks-1, err)
			}
		})
	}
}

// A truncated halo message is a data fault, not a crash: the receiving
// rank reports a size mismatch, aborts the communicator, and the run
// ends cleanly with that mismatch as the root cause. The fault fires
// once, so a run that rolled a communication fault back would complete.
func TestTruncatedHaloMessageFailsCleanly(t *testing.T) {
	err := runBounded(t, Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 4,
		testFaultPlan: &typhon.FaultPlan{Faults: []typhon.Fault{
			{Rank: 2, Msg: 5, Kind: typhon.FaultTruncate, Once: true},
		}},
	})
	if err == nil {
		t.Fatal("expected a size-mismatch error")
	}
	var sm *typhon.SizeMismatchError
	if !errors.As(err, &sm) || sm.From != 2 {
		t.Fatalf("root cause is not the truncated message from rank 2: %v", err)
	}
}

// A dropped message is detected by the receive timeout rather than a
// hang; the timing-out rank is the root cause. A TimeoutError reports
// Transient, yet it is never rolled back: the drop fires once, so a
// run that rolled it back would complete.
func TestDroppedHaloMessageTimesOut(t *testing.T) {
	err := runBounded(t, Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 4,
		testFaultPlan: &typhon.FaultPlan{Faults: []typhon.Fault{
			{Rank: 1, Msg: 3, Kind: typhon.FaultDrop, Once: true},
		}},
		testRecvTimeout: 2 * time.Second,
	})
	if err == nil {
		t.Fatal("expected a timeout error")
	}
	var to *typhon.TimeoutError
	if !errors.As(err, &to) || to.From != 1 {
		t.Fatalf("root cause is not a timeout waiting on rank 1: %v", err)
	}
}

// A corrupted ghost (NaN payload) is caught by the health sentinel and,
// with retries disabled, fails the run with non-finite context rather
// than propagating silently.
func TestCorruptedHaloMessageCaught(t *testing.T) {
	err := runBounded(t, Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 4,
		testRetryBudget: -1,
		testFaultPlan: &typhon.FaultPlan{Faults: []typhon.Fault{
			{Rank: 1, Msg: 5, Kind: typhon.FaultCorrupt},
		}},
	})
	if err == nil {
		t.Fatal("expected a non-finite failure")
	}
	var nf *hydro.ErrNonFinite
	if !errors.As(err, &nf) {
		t.Fatalf("error lacks health context: %v", err)
	}
}

// The same corruption without Once is persistent: every epoch counts
// messages from 1 again, so it re-fires after each rollback. The run
// must replay once per retry, then fail with the non-finite field
// rather than hang.
func TestCorruptedHaloMessagePersists(t *testing.T) {
	epochs := 0 // only touched by rank 0's goroutine, one epoch at a time
	err := runBounded(t, Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 4, MaxSteps: 25,
		testFaultPlan: &typhon.FaultPlan{Faults: []typhon.Fault{
			{Rank: 1, Msg: 5, Kind: typhon.FaultCorrupt},
		}},
		testFault: func(rank, step int, s *hydro.State) {
			if rank == 0 && step == 1 { // before the corrupted message lands
				epochs++
			}
		},
	})
	var nf *hydro.ErrNonFinite
	if !errors.As(err, &nf) {
		t.Fatalf("want a non-finite failure once the retries are spent, got %v", err)
	}
	if epochs != retryBudget+1 {
		t.Fatalf("step 1 ran %d times, want %d (the first pass and one replay per retry)", epochs, retryBudget+1)
	}
}

// A panic outranks a retryable failure in the same epoch: rank 0 takes
// a NaN the rollback rung alone would repair, and rank 1 then panics in
// the same step. The run must end with the panic and replay nothing.
func TestRollbackYieldsToPanic(t *testing.T) {
	nanTaken := make(chan struct{})
	passes := 0 // only touched by rank 0's goroutine
	err := runBounded(t, Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 2, MaxSteps: 25,
		testFault: func(rank, step int, s *hydro.State) {
			switch {
			case step != 14:
			case rank == 0:
				if passes++; passes == 1 {
					s.U[2] = math.NaN()
					close(nanTaken)
				}
			default:
				// Rank 0 has finished the step's exchanges and fails
				// on its own NaN whatever this rank does next.
				<-nanTaken
				panic("rank fault beside a NaN")
			}
		},
	})
	var rp *typhon.RankPanicError
	if !errors.As(err, &rp) || rp.Rank != 1 {
		t.Fatalf("want rank 1's panic as the root cause, got %v", err)
	}
	if passes != 1 {
		t.Fatalf("rank 0 passed step 14 %d times, want 1: the epoch was rolled back", passes)
	}
}

// A delayed message stalls the receiving exchange briefly but the run
// still completes with correct physics.
func TestDelayedHaloMessageCompletes(t *testing.T) {
	base := Config{Problem: "sod", NX: 32, NY: 4, Ranks: 2, MaxSteps: 10}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.testFaultPlan = &typhon.FaultPlan{Faults: []typhon.Fault{
		{Rank: 0, Msg: 2, Kind: typhon.FaultDelay, Delay: 20 * time.Millisecond},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	equivalent(t, res, ref, bitwise)
}

// The step history is one record per recorded step, strictly increasing
// in step and time, at any rank count — also when a rollback rewinds
// past steps that were already recorded (their records go; the replay
// records them afresh).
func TestHistoryRecorded(t *testing.T) {
	for _, tc := range []struct {
		name            string
		every, rollback int
		faultStep       int // 0 = none
		rollbacks, want int
	}{
		{"no-fault", 5, 0, 0, 0, 4},
		{"one-rollback", 1, 5, 8, 1, 20},
	} {
		for _, ranks := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/ranks=%d", tc.name, ranks), func(t *testing.T) {
				injected := false // only touched by rank 0's goroutine
				cfg := Config{
					Problem: "sod", NX: 32, NY: 2, MaxSteps: 20, Ranks: ranks,
					HistoryEvery: tc.every, testRollbackEvery: tc.rollback,
				}
				if tc.faultStep > 0 {
					cfg.testFault = func(rank, step int, s *hydro.State) {
						if rank == 0 && step == tc.faultStep && !injected {
							injected = true
							s.Rho[3] = math.NaN()
						}
					}
				}
				res, err := runBoundedResult(t, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Rollbacks != tc.rollbacks {
					t.Fatalf("rollbacks = %d, want %d", res.Rollbacks, tc.rollbacks)
				}
				if len(res.History) != tc.want {
					t.Fatalf("history entries = %d, want %d: %+v", len(res.History), tc.want, res.History)
				}
				for i, h := range res.History {
					if h.Step != (i+1)*tc.every {
						t.Fatalf("record %d is step %d, want %d", i, h.Step, (i+1)*tc.every)
					}
					if i > 0 && h.Time <= res.History[i-1].Time {
						t.Fatalf("history time not increasing: %+v after %+v", h, res.History[i-1])
					}
					if h.Dt <= 0 || h.Energy <= 0 {
						t.Fatalf("bad history record: %+v", h)
					}
				}
			})
		}
	}
}

// runBounded runs cfg on a goroutine and fails the test if the run does
// not return within a generous deadline — the deadlock detector for the
// failure-injection tests.
func runBounded(t *testing.T, cfg Config) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked")
		return nil
	}
}
