package hydro

import (
	"fmt"
	"testing"

	"bookleaf/internal/eos"
	"bookleaf/internal/mesh"
	"bookleaf/internal/par"
)

func benchState(b *testing.B, n, threads int) *State {
	return benchStateFuse(b, n, threads, true)
}

func benchStateFuse(b *testing.B, n, threads int, fuse bool) *State {
	b.Helper()
	m, err := mesh.Rect(mesh.RectSpec{NX: n, NY: n, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: mesh.DefaultWalls()})
	if err != nil {
		b.Fatal(err)
	}
	g, _ := eos.NewIdealGas(1.4)
	opt := DefaultOptions(g)
	opt.Fuse = fuse
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	for e := range rho {
		rho[e] = 1
		ein[e] = 0.1 + 0.001*float64(e%13)
	}
	s, err := NewState(m, opt, rho, ein)
	if err != nil {
		b.Fatal(err)
	}
	s.Pool = par.New(threads)
	b.Cleanup(s.Pool.Close)
	// Develop a flow so kernels do real work.
	for n := range s.U {
		s.U[n] = -0.1 * (s.X[n] - 0.5)
		s.V[n] = -0.1 * (s.Y[n] - 0.5)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	copy(s.U0, s.U)
	copy(s.V0, s.V)
	copy(s.Ein0, s.Ein)
	copy(s.X0, s.X)
	copy(s.Y0, s.Y)
	return s
}

func BenchmarkGetQ(b *testing.B) {
	s := benchState(b, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.GetQ(0, s.Mesh.NEl)
	}
}

func BenchmarkGetForcePerHourglass(b *testing.B) {
	for _, hg := range []HourglassControl{HGNone, HGFilter, HGSubzonal} {
		b.Run(hg.String(), func(b *testing.B) {
			s := benchState(b, 64, 1)
			s.Opt.Hourglass = hg
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.GetForce(0, s.Mesh.NEl, s.U0, s.V0)
			}
		})
	}
}

func BenchmarkGetAccScatterVsGather(b *testing.B) {
	for _, scatter := range []bool{true, false} {
		name := "gather"
		if scatter {
			name = "scatter"
		}
		b.Run(name, func(b *testing.B) {
			s := benchState(b, 64, 1)
			s.Opt.ScatterAcc = scatter
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.GetAcc(1e-7)
			}
		})
	}
}

// BenchmarkStepThreads measures the full Lagrangian step on a 120×120
// Noh-like converging flow across pool widths — the intra-rank scaling
// experiment. With the persistent pool and the gather-parallel
// acceleration every kernel in the step threads; speedup is then bounded
// only by the hardware (GOMAXPROCS / available cores).
func BenchmarkStepThreads(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			s := benchState(b, 120, threads)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Step(nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGetDt(b *testing.B) {
	s := benchState(b, 96, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.GetDt()
	}
}

// BenchmarkStepFusion measures the whole Lagrangian step with the
// fused element passes on and off — the headline fused-vs-unfused
// delta EXPERIMENTS.md pairs with the roofline prediction
// (bleaf-tables -roofline). Both variants run the same arithmetic on
// bitwise-identical states, so the gap is pure scheduling and memory
// traffic.
func BenchmarkStepFusion(b *testing.B) {
	for _, fuse := range []bool{true, false} {
		name := "unfused"
		if fuse {
			name = "fused"
		}
		for _, threads := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/threads-%d", name, threads), func(b *testing.B) {
				s := benchStateFuse(b, 120, threads, fuse)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Step(nil, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkQForceFusion isolates the q+force fusion: one merged sweep
// against the getq/getforce kernel pair over the same state, and the
// corrector's form of the merged sweep, which reads the limiter back.
func BenchmarkQForceFusion(b *testing.B) {
	b.Run("fused", func(b *testing.B) {
		s := benchStateFuse(b, 120, 1, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.GetQForce(0, s.Mesh.NEl, s.U0, s.V0)
		}
	})
	b.Run("reuse", func(b *testing.B) {
		s := benchStateFuse(b, 120, 1, true)
		s.GetQForce(0, s.Mesh.NEl, s.U0, s.V0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.getQForce(0, s.Mesh.NEl, s.U0, s.V0, true)
		}
	})
	b.Run("unfused", func(b *testing.B) {
		s := benchStateFuse(b, 120, 1, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.GetQ(0, s.Mesh.NEl)
			s.GetForce(0, s.Mesh.NEl, s.U0, s.V0)
		}
	})
}

// BenchmarkLagUpdateFusion isolates the vol→rho→ein→pc fusion. dt=0
// keeps the sweep idempotent across iterations while still paying the
// full gather, geometry, energy and EOS traffic.
func BenchmarkLagUpdateFusion(b *testing.B) {
	b.Run("fused", func(b *testing.B) {
		s := benchStateFuse(b, 120, 1, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.FusedUpdate(0, s.U0, s.V0, 0, s.Mesh.NEl); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unfused", func(b *testing.B) {
		s := benchStateFuse(b, 120, 1, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.GetGeom(0, s.U0, s.V0, 0, s.Mesh.NEl); err != nil {
				b.Fatal(err)
			}
			s.GetRho(0, s.Mesh.NEl)
			s.GetEin(0, s.U0, s.V0, 0, s.Mesh.NEl)
			s.GetPC(0, s.Mesh.NEl)
		}
	})
}
