package bookleaf

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"bookleaf/internal/hydro"
	"bookleaf/internal/par"
	"bookleaf/internal/partition"
	"bookleaf/internal/setup"
	"bookleaf/internal/typhon"
)

// TestOverlapBitwiseDeterminism is the acceptance test for the
// overlapped halo schedule: at every rank count, overlap-on must
// reproduce overlap-off bit for bit. The schedule only reorders work
// across disjoint index sets — interior nodes read no ghost corner
// force, interior elements read no ghost node — so each per-entity
// update sees exactly the inputs the synchronous schedule gives it.
// FloorEnergy is the one chunk-order-summed diagnostic (compared with
// a tolerance, as in the thread-count determinism test).
func TestOverlapBitwiseDeterminism(t *testing.T) {
	cases := []Config{
		{Problem: "noh", NX: 20, NY: 20, MaxSteps: 25},
		{Problem: "sod", NX: 64, NY: 4, MaxSteps: 25},
	}
	for _, base := range cases {
		t.Run(base.Problem, func(t *testing.T) {
			for _, ranks := range []int{1, 2, 4, 7} {
				off := base
				off.Ranks = ranks
				ref, err := Run(off)
				if err != nil {
					t.Fatalf("ranks=%d overlap=off: %v", ranks, err)
				}
				on := base
				on.Ranks = ranks
				on.Overlap = true
				res, err := Run(on)
				if err != nil {
					t.Fatalf("ranks=%d overlap=on: %v", ranks, err)
				}
				if res.Steps != ref.Steps || res.Time != ref.Time {
					t.Fatalf("ranks=%d: steps/time (%d, %v) differ from sync (%d, %v)",
						ranks, res.Steps, res.Time, ref.Steps, ref.Time)
				}
				for name, pair := range map[string][2][]float64{
					"rho": {res.Rho, ref.Rho}, "ein": {res.Ein, ref.Ein},
					"p": {res.P, ref.P},
					"u": {res.U, ref.U}, "v": {res.V, ref.V},
					"x": {res.X, ref.X}, "y": {res.Y, ref.Y},
				} {
					if i := firstDiff(pair[0], pair[1]); i >= 0 {
						t.Errorf("ranks=%d: %s[%d] = %x, sync %x",
							ranks, name, i, pair[0][i], pair[1][i])
					}
				}
				if res.EFinal != ref.EFinal {
					t.Errorf("ranks=%d: EFinal %x differs from sync %x", ranks, res.EFinal, ref.EFinal)
				}
				if d := math.Abs(res.FloorEnergy - ref.FloorEnergy); d > 1e-12*math.Max(1, math.Abs(ref.FloorEnergy)) {
					t.Errorf("ranks=%d: FloorEnergy %v vs sync %v", ranks, res.FloorEnergy, ref.FloorEnergy)
				}
			}
		})
	}
}

// Overlap + ScatterAcc has no interior/boundary split and must be
// rejected up front, not silently mis-scheduled.
func TestOverlapRejectsScatterAcc(t *testing.T) {
	_, err := Run(Config{Problem: "sod", NX: 16, NY: 2, MaxSteps: 1, Ranks: 2, Overlap: true, ScatterAcc: true})
	if err == nil {
		t.Fatal("Overlap+ScatterAcc accepted")
	}
}

// A truncated halo message on the phased path surfaces at Finish —
// after the interior work already ran — as the same clean
// size-mismatch failure the blocking schedule reports.
func TestOverlapTruncatedHaloMessageFailsCleanly(t *testing.T) {
	err := runBounded(t, Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 4, Overlap: true,
		testFaultPlan: &typhon.FaultPlan{Faults: []typhon.Fault{
			{Rank: 2, Msg: 5, Kind: typhon.FaultTruncate},
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

// A dropped message leaves the phased Finish blocked until the receive
// timeout aborts the communicator; no deadlock, timing-out rank as the
// root cause.
func TestOverlapDroppedHaloMessageTimesOut(t *testing.T) {
	err := runBounded(t, Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 4, Overlap: true,
		testFaultPlan: &typhon.FaultPlan{Faults: []typhon.Fault{
			{Rank: 1, Msg: 3, Kind: typhon.FaultDrop},
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

// A corrupted ghost (NaN payload) delivered through the phased path is
// caught by the health sentinel and, with retries disabled, fails the
// run with non-finite context rather than propagating silently.
func TestOverlapCorruptedHaloMessageCaught(t *testing.T) {
	err := runBounded(t, Config{
		Problem: "sod", NX: 64, NY: 4, Ranks: 4, Overlap: true,
		RollbackEvery: -1, RetryBudget: -1,
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

// A delayed message stalls the phased Finish briefly but the run still
// completes with correct physics.
func TestOverlapDelayedHaloMessageCompletes(t *testing.T) {
	base := Config{Problem: "sod", NX: 32, NY: 4, Ranks: 2, MaxSteps: 10}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Overlap = true
	cfg.testFaultPlan = &typhon.FaultPlan{Faults: []typhon.Fault{
		{Rank: 0, Msg: 2, Kind: typhon.FaultDelay, Delay: 20 * time.Millisecond},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(res.Rho, ref.Rho); i >= 0 {
		t.Errorf("rho[%d] = %x, want %x despite delay", i, res.Rho[i], ref.Rho[i])
	}
}

// --- stepCluster: a minimal multi-rank step driver for the allocation
// pin and BenchmarkParallelStep. It reproduces the rank loop's
// communication schedule (dt MINLOC + the two Lagrangian halo points,
// blocking or phased) without checkpointing, probes or rollback, and
// steps on demand so the measurement loop controls exactly what runs.

const (
	ccStep = iota
	ccSave
	ccReset
	ccQuit
)

type stepCluster struct {
	nranks int
	req    []chan int
	done   chan error
	finish chan error
}

func startStepCluster(tb testing.TB, problem string, nx, ny, nranks int, overlap bool) *stepCluster {
	tb.Helper()
	p, err := setup.ByName(problem, nx, ny, 0)
	if err != nil {
		tb.Fatal(err)
	}
	part, err := partition.RCBMesh(p.Mesh, nranks)
	if err != nil {
		tb.Fatal(err)
	}
	subs, err := partition.Split(p.Mesh, part, nranks)
	if err != nil {
		tb.Fatal(err)
	}
	comm, err := typhon.NewComm(nranks)
	if err != nil {
		tb.Fatal(err)
	}
	cl := &stepCluster{
		nranks: nranks,
		req:    make([]chan int, nranks),
		done:   make(chan error, nranks),
		finish: make(chan error, 1),
	}
	for i := range cl.req {
		cl.req[i] = make(chan int)
	}
	go func() {
		cl.finish <- comm.Run(func(rk *typhon.Rank) {
			sm := subs[rk.ID()]
			lm := sm.M
			s, err := p.NewStateOn(lm)
			if err != nil {
				panic(err) // test harness: surfaces as RankPanicError
			}
			s.Pool = par.New(1)
			defer s.Pool.Close()
			elHalo := typhon.NewHalo(sm.ElSend, sm.ElRecv)
			ndHalo := typhon.NewHalo(sm.NdSend, sm.NdRecv)

			var commErr error
			hooks := &hydro.Hooks{
				ReduceDt: func(dt float64, e int) (float64, int) {
					if commErr != nil {
						return dt, -1
					}
					d, _, err := rk.AllReduceMinLoc(dt, -1)
					if err != nil {
						commErr = err
						return dt, -1
					}
					return d, -1
				},
			}
			if overlap {
				ffS, fwS := s.ForceHalo()
				peF := rk.NewExchange(elHalo, fwS, len(ffS))
				peV := rk.NewExchange(ndHalo, 1, 4)
				var pendF, pendV bool
				hooks.Band = lm.BoundaryBand()
				hooks.StartForces = func(st *hydro.State) {
					if commErr != nil {
						return
					}
					ff, _ := st.ForceHalo()
					if err := peF.Start(ff...); err != nil {
						commErr = err
					} else {
						pendF = true
					}
				}
				hooks.FinishForces = func(st *hydro.State) {
					if !pendF {
						return
					}
					pendF = false
					if err := peF.Finish(); err != nil {
						commErr = err
					}
				}
				hooks.StartVelocities = func(st *hydro.State) {
					if commErr != nil {
						return
					}
					if err := peV.Start(st.U, st.V, st.UBar, st.VBar); err != nil {
						commErr = err
					} else {
						pendV = true
					}
				}
				hooks.FinishVelocities = func(st *hydro.State) {
					if !pendV {
						return
					}
					pendV = false
					if err := peV.Finish(); err != nil {
						commErr = err
					}
				}
			} else {
				hooks.ExchangeForces = func(st *hydro.State) {
					if commErr != nil {
						return
					}
					ff, fw := st.ForceHalo()
					if err := rk.Exchange(elHalo, fw, ff...); err != nil {
						commErr = err
					}
				}
				hooks.ExchangeVelocities = func(st *hydro.State) {
					if commErr != nil {
						return
					}
					if err := rk.Exchange(ndHalo, 1, st.U, st.V, st.UBar, st.VBar); err != nil {
						commErr = err
					}
				}
			}

			var roll hydro.Memento
			for cmd := range cl.req[rk.ID()] {
				var err error
				switch cmd {
				case ccStep:
					_, err = s.Step(nil, hooks)
					if err == nil {
						err = commErr
					}
				case ccSave:
					s.Save(&roll)
				case ccReset:
					s.Load(&roll)
				case ccQuit:
					cl.done <- nil
					return
				}
				cl.done <- err
			}
		})
	}()
	return cl
}

// do issues one command to every rank and waits for all of them.
func (cl *stepCluster) do(tb testing.TB, cmd int) {
	for _, ch := range cl.req {
		ch <- cmd
	}
	var firstErr error
	for i := 0; i < cl.nranks; i++ {
		if err := <-cl.done; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		tb.Fatalf("cluster step: %v", firstErr)
	}
}

func (cl *stepCluster) stop(tb testing.TB) {
	cl.do(tb, ccQuit)
	if err := <-cl.finish; err != nil {
		tb.Fatal(err)
	}
}

// TestParallelStepZeroAllocs extends PR 2's intra-rank allocation pin
// to the distributed step: once the kernel arenas are warm and the
// exchange buffer pool is saturated, a full multi-rank Lagrangian step
// — kernels, dt reduction and both halo exchanges, blocking or phased
// — performs zero heap allocations across all rank goroutines
// (AllocsPerRun counts process-wide mallocs). ranks-1 is the same step
// through a communicator of one: reductions without peers, exchanges
// without neighbours.
func TestParallelStepZeroAllocs(t *testing.T) {
	for _, nranks := range []int{1, 2, 4} {
		for _, overlap := range []bool{false, true} {
			t.Run(fmt.Sprintf("ranks-%d/overlap-%v", nranks, overlap), func(t *testing.T) {
				cl := startStepCluster(t, "noh", 16, 16, nranks, overlap)
				defer cl.stop(t)
				for i := 0; i < 6; i++ { // warm arenas + saturate buffer pool
					cl.do(t, ccStep)
				}
				allocs := testing.AllocsPerRun(10, func() {
					cl.do(t, ccStep)
				})
				if allocs != 0 {
					t.Errorf("steady-state %d-rank step allocates %v times per run", nranks, allocs)
				}
			})
		}
	}
}

// BenchmarkParallelStep records the rank-scaling axis of the step cost
// (BENCH_step.json via make bench): one full Lagrangian step at 1, 2
// and 4 ranks with the blocking and the overlapped halo schedule. The
// state rolls back to a saved snapshot every 64 steps so arbitrarily
// long benchmark runs measure the same flow field.
func BenchmarkParallelStep(b *testing.B) {
	for _, nranks := range []int{1, 2, 4} {
		for _, mode := range []struct {
			name    string
			overlap bool
		}{{"overlap-off", false}, {"overlap-on", true}} {
			b.Run(fmt.Sprintf("ranks-%d/%s", nranks, mode.name), func(b *testing.B) {
				cl := startStepCluster(b, "noh", 20, 20, nranks, mode.overlap)
				defer cl.stop(b)
				for i := 0; i < 5; i++ {
					cl.do(b, ccStep)
				}
				cl.do(b, ccSave)
				steps := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if steps >= 64 {
						b.StopTimer()
						cl.do(b, ccReset)
						steps = 0
						b.StartTimer()
					}
					cl.do(b, ccStep)
					steps++
				}
			})
		}
	}
}
