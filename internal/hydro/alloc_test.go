package hydro

import (
	"fmt"
	"testing"

	"bookleaf/internal/eos"
	"bookleaf/internal/obs"
	"bookleaf/internal/par"
)

// TestStepZeroAllocs pins the scratch-arena guarantee: after the first
// (warm-up) step, a steady-state Lagrangian step performs zero heap
// allocations at any thread count. Every regression here is a
// per-step cost multiplied by the whole run, so this fails hard rather
// than tolerating "a few".
func TestStepZeroAllocs(t *testing.T) {
	for _, fuse := range []bool{true, false} {
		for _, threads := range []int{1, 2, 4} {
			// The ScatterAcc row pins the lazily sized nodal
			// accumulators: the warm-up step allocates them, no later
			// step does. The filter and nohg rows run the force body's
			// other two hourglass branches (the default is sub-zonal).
			for _, ablation := range []string{"", "scatteracc", "filter", "nohg"} {
				name := "unfused"
				if fuse {
					name = "fused"
				}
				if ablation != "" {
					name += "/" + ablation
				}
				t.Run(fmt.Sprintf("%s/pool-%d", name, threads), func(t *testing.T) {
					testStepZeroAllocs(t, fuse, threads, ablation)
				})
			}
		}
	}
}

func testStepZeroAllocs(t *testing.T, fuse bool, threads int, ablation string) {
	{
		m := boxMesh(t, 16, 16)
		g, _ := eos.NewIdealGas(1.4)
		opt := DefaultOptions(g)
		opt.Fuse = fuse
		opt.ScatterAcc = ablation == "scatteracc"
		switch ablation {
		case "filter":
			opt.Hourglass = HGFilter
		case "nohg":
			opt.Hourglass = HGNone
		}
		rho := make([]float64, m.NEl)
		ein := make([]float64, m.NEl)
		for e := range rho {
			rho[e] = 1
			ein[e] = 0.1 + 0.001*float64(e%13)
		}
		s, err := NewState(m, opt, rho, ein)
		if err != nil {
			t.Fatal(err)
		}
		s.Pool = par.New(threads)
		for n := range s.U {
			s.U[n] = -0.1 * (s.X[n] - 0.5)
			s.V[n] = -0.1 * (s.Y[n] - 0.5)
		}
		tm := obs.NewClock()
		// Warm-up: spawns pool workers, registers clock names, sizes
		// the floor-partial scratch.
		if _, err := s.Step(tm, nil); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := s.Step(tm, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("threads=%d: steady-state Step allocates %v per call, want 0", threads, allocs)
		}
		// A nil clock must be equally allocation-free.
		allocs = testing.AllocsPerRun(10, func() {
			if _, err := s.Step(nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("threads=%d: Step with a nil clock allocates %v per call, want 0", threads, allocs)
		}
		s.Pool.Close()
	}
}
