package bookleaf

import (
	"fmt"
	"testing"

	"bookleaf/internal/hydro"
	"bookleaf/internal/par"
	"bookleaf/internal/partition"
	"bookleaf/internal/setup"
	"bookleaf/internal/typhon"
)

// --- stepCluster: a minimal multi-rank step driver for the allocation
// pin and BenchmarkParallelStep. It reproduces the rank loop's
// communication schedule (dt MINLOC + the two Lagrangian halo points)
// without checkpointing, probes or rollback, and steps on demand so the
// measurement loop controls exactly what runs. Each rank steps on its
// own pool of the given size.

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

func startStepCluster(tb testing.TB, problem string, nx, ny, nranks, threads int) *stepCluster {
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
			s.Pool = par.New(threads)
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
// — kernels, dt reduction and both halo exchanges — performs zero heap
// allocations across all rank goroutines
// (AllocsPerRun counts process-wide mallocs). ranks-1 is the same step
// through a communicator of one: reductions without peers, exchanges
// without neighbours. The pool-2 rows are the hybrid schedule: ranks
// whose kernels run on two threads each.
func TestParallelStepZeroAllocs(t *testing.T) {
	for _, nranks := range []int{1, 2, 4} {
		for _, threads := range []int{1, 2} {
			name := fmt.Sprintf("ranks-%d", nranks)
			if threads != 1 { // the one-thread rows keep their names
				name += fmt.Sprintf("/pool-%d", threads)
			}
			t.Run(name, func(t *testing.T) {
				cl := startStepCluster(t, "noh", 16, 16, nranks, threads)
				defer cl.stop(t)
				for i := 0; i < 6; i++ { // warm arenas + saturate buffer pool
					cl.do(t, ccStep)
				}
				allocs := testing.AllocsPerRun(10, func() {
					cl.do(t, ccStep)
				})
				if allocs != 0 {
					t.Errorf("steady-state %d-rank step on %d-thread pools allocates %v times per run", nranks, threads, allocs)
				}
			})
		}
	}
}

// BenchmarkParallelStep measures the rank-scaling axis of the step
// cost: one full Lagrangian step at 1, 2 and 4 ranks. The state rolls
// back to a saved snapshot every 64 steps so arbitrarily long benchmark
// runs measure the same flow field.
func BenchmarkParallelStep(b *testing.B) {
	for _, nranks := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ranks-%d", nranks), func(b *testing.B) {
			cl := startStepCluster(b, "noh", 20, 20, nranks, 1)
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
