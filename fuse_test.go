package bookleaf

import (
	"fmt"
	"math"
	"testing"
)

// TestFuseBitwiseDeterminism is the acceptance test for the fused
// element passes: at every thread count, on one rank and across a
// two-rank halo exchange, the fused step must reproduce the unfused
// (paper-structure) step bit for bit. The fusion only merges
// loop bodies over the same per-element arithmetic — each element
// still sees exactly the operand sequence the unfused kernels gave it
// — so any drift here is a real reordering bug, not roundoff.
// FloorEnergy is the one chunk-order-summed diagnostic (compared with
// a tolerance, as in the thread-count determinism test).
func TestFuseBitwiseDeterminism(t *testing.T) {
	cases := []Config{
		{Problem: "noh", NX: 20, NY: 20, MaxSteps: 25},
		{Problem: "sod", NX: 64, NY: 4, MaxSteps: 25},
	}
	for _, base := range cases {
		t.Run(base.Problem, func(t *testing.T) {
			for _, ranks := range []int{1, 2} {
				for _, threads := range []int{1, 2, 4, 7} {
					label := fmt.Sprintf("ranks=%d/threads=%d", ranks, threads)
					t.Run(label, func(t *testing.T) {
						cfg := base
						cfg.Threads = threads
						cfg.Ranks = ranks

						off := cfg
						off.NoFuse = true
						ref, err := Run(off)
						if err != nil {
							t.Fatalf("%s unfused: %v", label, err)
						}
						res, err := Run(cfg)
						if err != nil {
							t.Fatalf("%s fused: %v", label, err)
						}
						if res.Steps != ref.Steps || res.Time != ref.Time {
							t.Fatalf("%s: steps/time (%d, %v) differ from unfused (%d, %v)",
								label, res.Steps, res.Time, ref.Steps, ref.Time)
						}
						for name, pair := range map[string][2][]float64{
							"rho": {res.Rho, ref.Rho}, "ein": {res.Ein, ref.Ein},
							"p": {res.P, ref.P},
							"u": {res.U, ref.U}, "v": {res.V, ref.V},
							"x": {res.X, ref.X}, "y": {res.Y, ref.Y},
						} {
							if i := firstDiff(pair[0], pair[1]); i >= 0 {
								t.Errorf("%s: %s[%d] = %x, unfused %x",
									label, name, i, pair[0][i], pair[1][i])
							}
						}
						if res.EFinal != ref.EFinal {
							t.Errorf("%s: EFinal %x differs from unfused %x", label, res.EFinal, ref.EFinal)
						}
						if d := math.Abs(res.FloorEnergy - ref.FloorEnergy); d > 1e-12*math.Max(1, math.Abs(ref.FloorEnergy)) {
							t.Errorf("%s: FloorEnergy %v vs unfused %v", label, res.FloorEnergy, ref.FloorEnergy)
						}
					})
				}
			}
		})
	}
}
