// Benchmarks regenerating the paper's evaluation at this-host scale.
// Every table and figure has a counterpart:
//
//	Table I   -> BenchmarkTable1MachineModel (platform registry eval)
//	Table II  -> BenchmarkTable2Kernel/* (per-kernel costs, Noh state)
//	Figure 1  -> BenchmarkFig1Noh/flat vs hybrid (overall step time)
//	Figure 2a -> BenchmarkFig2aViscosity
//	Figure 2b -> BenchmarkFig2bAcceleration (scatter vs gather ablation)
//	Figure 3  -> BenchmarkFig3SodScaling/ranks-N (real strong scaling)
//	Figure 4  -> BenchmarkFig4Kernels/ranks-N (per-kernel under scaling)
//
// cmd/bleaf-tables prints the corresponding full-scale modelled numbers
// next to the paper's values.
package bookleaf

import (
	"fmt"
	"testing"

	"bookleaf/internal/ale"
	"bookleaf/internal/hydro"
	"bookleaf/internal/machine"
	"bookleaf/internal/obs"
	"bookleaf/internal/order"
	"bookleaf/internal/par"
	"bookleaf/internal/partition"
	"bookleaf/internal/setup"
)

// nohState builds a developed Noh state (a few steps in, so the shock
// exists and the viscosity kernel has real work).
func nohState(b *testing.B, n int) *hydro.State {
	b.Helper()
	p, err := setup.Noh(n, n)
	if err != nil {
		b.Fatal(err)
	}
	s, err := p.NewState()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func BenchmarkTable1MachineModel(b *testing.B) {
	w := machine.Table2Workload()
	for i := 0; i < b.N; i++ {
		for _, p := range machine.Platforms() {
			_ = machine.ModelRow(p, w)
		}
	}
}

func BenchmarkTable2Kernel(b *testing.B) {
	s := nohState(b, 64)
	nel := s.Mesh.NEl
	kernels := []struct {
		name string
		fn   func()
	}{
		{"getq", func() { s.GetQ(0, nel) }},
		{"getforce", func() { s.GetForce(0, nel, s.U, s.V) }},
		{"getacc", func() { s.GetAcc(1e-6) }},
		{"getdt", func() { s.GetDt() }},
		{"getgeom", func() { _ = s.GetGeom(1e-9, s.U, s.V, 0, nel) }},
		{"getrho", func() { s.GetRho(0, nel) }},
		{"getein", func() { s.GetEin(1e-9, s.U, s.V, 0, nel) }},
		{"getpc", func() { s.GetPC(0, nel) }},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			copy(s.U0, s.U)
			copy(s.V0, s.V)
			copy(s.Ein0, s.Ein)
			copy(s.X0, s.X)
			copy(s.Y0, s.Y)
			b.ReportMetric(float64(nel), "elements")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.fn()
			}
		})
	}
}

func BenchmarkFig1Noh(b *testing.B) {
	for _, mode := range []struct {
		name           string
		ranks, threads int
	}{
		{"flat-4ranks", 4, 1},
		{"hybrid-4threads", 1, 4},
		{"serial", 1, 1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Run(Config{
					Problem: "noh", NX: 48, NY: 48, MaxSteps: 40,
					Ranks: mode.ranks, Threads: mode.threads,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig2aViscosity(b *testing.B) {
	s := nohState(b, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.GetQ(0, s.Mesh.NEl)
	}
}

func BenchmarkFig2bAcceleration(b *testing.B) {
	// The paper's acceleration story: the reference scatter with its
	// data dependency vs the (default) race-free gather.
	for _, scatter := range []bool{true, false} {
		name := "gather"
		if scatter {
			name = "scatter"
		}
		b.Run(name, func(b *testing.B) {
			s := nohState(b, 96)
			s.Opt.ScatterAcc = scatter
			copy(s.U0, s.U)
			copy(s.V0, s.V)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.GetAcc(1e-7)
			}
		})
	}
}

func BenchmarkFig3SodScaling(b *testing.B) {
	for _, ranks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks-%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Run(Config{
					Problem: "sod", NX: 256, NY: 8, MaxSteps: 60, Ranks: ranks,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig4Kernels(b *testing.B) {
	// Per-kernel times under rank scaling (Figures 4a/4b at host
	// scale): reported as custom metrics from the run's kernel times.
	for _, ranks := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ranks-%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// NoFuse: the per-kernel metrics below exist only in
				// the paper-structure timer breakdown.
				res, err := Run(Config{
					Problem: "sod", NX: 192, NY: 8, MaxSteps: 50, Ranks: ranks,
					NoFuse: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Timers["getq"]*1e3, "getq-ms")
				b.ReportMetric(res.Timers["getacc"]*1e3, "getacc-ms")
			}
		})
	}
}

func BenchmarkLagrangianStep(b *testing.B) {
	s := nohState(b, 64)
	tm := obs.NewClock()
	// Warm the clock so steady-state steps allocate nothing
	// (first use of each name inserts into the clock).
	if _, err := s.Step(tm, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.Mesh.NEl), "elements")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(tm, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemap measures the remap cost across the target-mesh mode
// and the intra-rank thread count. Each iteration times one Apply on a freshly stepped state, so the remap
// sees real fluxes; the interleaved step runs off the clock.
func BenchmarkRemap(b *testing.B) {
	for _, mode := range []struct {
		name string
		opt  ale.Options
	}{
		{"eulerian", ale.Options{Mode: ale.Eulerian}},
		{"smoothed", ale.Options{Mode: ale.Smoothed, SmoothWeight: 0.5}},
	} {
		for _, threads := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("mode-%s/threads-%d", mode.name, threads), func(b *testing.B) {
				p, err := setup.Sod(128, 8)
				if err != nil {
					b.Fatal(err)
				}
				s, err := p.NewState()
				if err != nil {
					b.Fatal(err)
				}
				if threads > 1 {
					s.Pool = par.New(threads)
					defer s.Pool.Close()
				}
				for i := 0; i < 5; i++ {
					if _, err := s.Step(nil, nil); err != nil {
						b.Fatal(err)
					}
				}
				r := ale.NewRemapper(mode.opt, s)
				b.ReportMetric(float64(s.Mesh.NEl), "elements")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := r.Apply(s, nil, nil); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if _, err := s.Step(nil, nil); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkStepGrid sweeps the mesh numberings and reports ns per
// element-step. reorder=none is the seed configuration; hilbert is the
// locality overhaul the roofline's reuse proxy predicts.
//
// The mesh is a wide Sod strong-scaling geometry (8192×8): at that
// width the generator's row-major sweep streams ~4 MB of element state
// between consecutive touches of a node row, so the node gathers fall
// out of L2 and the numbering is what decides whether they come back
// from cache or memory. On small square meshes (a 192-wide row fits
// L1) row-major is already near-optimal and the grid is flat — see
// bleaf-tables -reorder for the model-side version of both regimes.
func BenchmarkStepGrid(b *testing.B) {
	for _, ro := range []string{"none", "hilbert", "rcm"} {
		b.Run("reorder="+ro, func(b *testing.B) {
			p, err := setup.Sod(8192, 8)
			if err != nil {
				b.Fatal(err)
			}
			kind, err := order.Parse(ro)
			if err != nil {
				b.Fatal(err)
			}
			if p.Mesh, err = order.Reorder(p.Mesh, kind); err != nil {
				b.Fatal(err)
			}
			s, err := p.NewState()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := s.Step(nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Step(nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(
				float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Mesh.NEl),
				"ns/el")
		})
	}
}

func BenchmarkPartitioners(b *testing.B) {
	p, err := setup.Noh(96, 96)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("rcb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := partition.RCBMesh(p.Mesh, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("metis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := partition.MultilevelMesh(p.Mesh, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkStrongScalingModel(b *testing.B) {
	w := machine.Fig3Workload()
	ps := machine.Platforms()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ps {
			if ps[j].Exec == machine.Hybrid {
				_ = ps[j].StrongScaling(w, []int{8, 16, 32, 64})
			}
		}
	}
}
