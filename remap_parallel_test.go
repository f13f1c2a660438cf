package bookleaf

// Parallel ALE regression tests: recovery when a rollback replays
// across a remap step, and the remapped masses a rollback restores. Rank-independence of the smoothed mode is a row of
// the equivalence matrix.

import (
	"math"
	"testing"
	"time"

	"bookleaf/internal/hydro"
)

// TestRollbackAcrossRemapStepRecovers: a single-rank failure inside a
// remap step must end the epoch without a deadlock — the failing rank
// aborts the communicator while its peer may be in the step's remap
// exchanges — and the rollback must then replay cleanly across the
// same remap step. The latched coordinate corruption tangles rank 1's
// mesh during step 10 (a remap step at ALEFreq 5), so rank 1 fails
// mid-step while rank 0 is stepping and remapping; the snapshot at
// step 8 predates the corruption, so one rollback recovers the run.
func TestRollbackAcrossRemapStepRecovers(t *testing.T) {
	for _, mode := range []string{"eulerian", "smoothed"} {
		t.Run(mode, func(t *testing.T) {
			injected := false // only touched by rank 1's goroutine
			res, err := runBoundedResult(t, Config{
				Problem: "sod", NX: 32, NY: 4, Ranks: 2, MaxSteps: 15,
				ALE: mode, ALEFreq: 5, testRollbackEvery: 4,
				testFault: func(rank, step int, s *hydro.State) {
					// Fires after step 9 completes; the corrupted
					// coordinate survives the health sentinel (which
					// checks only the evolving fields) and tangles the
					// mesh inside step 10.
					if rank == 1 && step == 9 && !injected {
						injected = true
						s.X[5] -= 0.5
					}
				},
			})
			if err != nil {
				t.Fatalf("rollback across remap step did not recover: %v", err)
			}
			if res.Rollbacks != 1 {
				t.Fatalf("rollbacks = %d, want 1", res.Rollbacks)
			}
			if res.Steps != 15 {
				t.Fatalf("run stopped at step %d, want 15", res.Steps)
			}
		})
	}
}

// TestRollbackRestoresRemappedMasses: only the remap writes masses, so
// an ALE run's rollback memento must carry them. The snapshot at step 8
// holds the masses of the step-5 remap; the step-10 remap rewrites them;
// a NaN after step 11 rolls every rank back to step 8. Step 9 is
// Lagrangian and leaves masses alone, so what a rank holds after its
// second step 9 must be bitwise what it held after its first.
func TestRollbackRestoresRemappedMasses(t *testing.T) {
	masses := func(s *hydro.State) []float64 {
		out := append(append([]float64(nil), s.Mass...), s.NdMass...)
		for e, cs := 0, s.CornerStride(); e < s.Mesh.NEl; e++ {
			out = append(out, s.CMass[cs*e:cs*e+4]...)
		}
		return out
	}
	// Indexed by rank; each entry is touched by that rank's goroutine only.
	var step9 [2][][]float64
	var step10 [2][]float64
	injected := false
	res, err := runBoundedResult(t, Config{
		Problem: "sod", NX: 32, NY: 4, Ranks: 2, MaxSteps: 15,
		ALE: "eulerian", ALEFreq: 5, testRollbackEvery: 4,
		testFault: func(rank, step int, s *hydro.State) {
			switch {
			case step == 9:
				step9[rank] = append(step9[rank], masses(s))
			case step == 10 && step10[rank] == nil:
				step10[rank] = masses(s)
			case rank == 1 && step == 11 && !injected:
				injected = true
				s.U[2] = math.NaN()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rollbacks != 1 || res.Steps != 15 {
		t.Fatalf("rollbacks = %d, steps = %d, want 1, 15", res.Rollbacks, res.Steps)
	}
	for rank := range step9 {
		if len(step9[rank]) != 2 {
			t.Fatalf("rank %d passed step 9 %d times, want 2", rank, len(step9[rank]))
		}
		if i, _ := fieldDiff(step9[rank][0], step10[rank]); i < 0 {
			t.Fatalf("rank %d: the step-10 remap changed no mass; the test has nothing to restore", rank)
		}
		if i, _ := fieldDiff(step9[rank][1], step9[rank][0]); i >= 0 {
			t.Errorf("rank %d: mass word %d = %x after the rollback, %x before", rank, i, step9[rank][1][i], step9[rank][0][i])
		}
	}
}

// runBoundedResult is runBounded returning the Result too, for tests
// that assert on recovery bookkeeping as well as deadlock freedom.
func runBoundedResult(t *testing.T, cfg Config) (*Result, error) {
	t.Helper()
	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := Run(cfg)
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked")
		return nil, nil
	}
}
