package bookleaf_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"bookleaf"
	"bookleaf/internal/exact"
	"bookleaf/internal/mesh"
)

func run(t *testing.T, cfg bookleaf.Config) *bookleaf.Result {
	t.Helper()
	res, err := bookleaf.Run(cfg)
	if err != nil {
		t.Fatalf("run %+v: %v", cfg, err)
	}
	return res
}

func TestSodMatchesExactRiemann(t *testing.T) {
	res := run(t, bookleaf.Config{Problem: "sod", NX: 200, NY: 2})
	if math.Abs(res.Time-0.25) > 1e-9 {
		t.Fatalf("end time = %v, want 0.25", res.Time)
	}
	rp := exact.Sod(0.5)
	xs, rho := res.XProfile(res.Rho)
	l1 := bookleaf.L1Error(xs, rho, func(x float64) float64 {
		s, err := rp.Sample(x, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		return s.Rho
	})
	if l1 > 0.03 {
		t.Fatalf("Sod density L1 error = %v, want < 0.03", l1)
	}
	// Shock position: steepest density drop near the exact location.
	xShock, err := rp.ShockPosition(0.25)
	if err != nil {
		t.Fatal(err)
	}
	best, bestDrop := 0.0, 0.0
	for i := 1; i < len(xs); i++ {
		// x > 0.8 keeps the search past the contact at x ≈ 0.73.
		if drop := rho[i-1] - rho[i]; drop > bestDrop && xs[i] > 0.8 {
			bestDrop, best = drop, xs[i]
		}
	}
	if math.Abs(best-xShock) > 0.03 {
		t.Fatalf("shock at %v, exact %v", best, xShock)
	}
	if drift := res.EnergyDrift(); drift > 1e-10 {
		t.Fatalf("energy drift %v", drift)
	}
	if math.Abs(res.MassFinal-res.Mass0) > 1e-12*res.Mass0 {
		t.Fatalf("mass drift: %v -> %v", res.Mass0, res.MassFinal)
	}
}

func TestNohPostShockState(t *testing.T) {
	res := run(t, bookleaf.Config{Problem: "noh", NX: 40, NY: 40})
	noh := exact.NewNoh()
	rs, rho := res.RadialProfile(res.Rho)
	// Post-shock plateau: median density for r in [0.05, 0.15] (away
	// from the wall-heated origin and the shock at 0.2). Staggered
	// schemes with bulk q under-resolve the plateau at 40x40 (the
	// value converges towards 16 with resolution; see EXPERIMENTS.md),
	// so the band is generous while still proving a 12x+ compression.
	var plateau []float64
	peak := 0.0
	for i, r := range rs {
		if r > 0.05 && r < 0.15 {
			plateau = append(plateau, rho[i])
		}
		if rho[i] > peak {
			peak = rho[i]
		}
	}
	if len(plateau) < 5 {
		t.Fatalf("too few plateau samples: %d", len(plateau))
	}
	med := median(plateau)
	if math.Abs(med-noh.PostShockDensity()) > 3.6 {
		t.Fatalf("post-shock density %v, exact %v", med, noh.PostShockDensity())
	}
	// The first cell at the origin over-compresses somewhat (the
	// mirror image of wall heating), so allow up to 21.
	if peak < 13 || peak > 21 {
		t.Fatalf("peak density %v outside [13, 21] (exact plateau 16)", peak)
	}
	// Ahead of the shock the density follows 1 + t/r.
	for i, r := range rs {
		if r > 0.35 && r < 0.8 {
			want, _, _, _ := noh.Sample(r, 0.6)
			if math.Abs(rho[i]-want) > 0.4 {
				t.Fatalf("pre-shock density at r=%v: %v, exact %v", r, rho[i], want)
			}
		}
	}
	if drift := res.EnergyDrift(); drift > 1e-9 {
		t.Fatalf("energy drift %v", drift)
	}
}

func TestSedovShockRadius(t *testing.T) {
	res := run(t, bookleaf.Config{Problem: "sedov", NX: 60, NY: 60})
	sed, err := exact.NewSedov(res.Gamma, 2, res.SedovEnergy, 1)
	if err != nil {
		t.Fatal(err)
	}
	rExact := sed.ShockRadius(res.Time)
	rs, rho := res.RadialProfile(res.Rho)
	// Location of peak density ~ shock front.
	peakR, peak := 0.0, 0.0
	for i, r := range rs {
		if rho[i] > peak {
			peak, peakR = rho[i], r
		}
	}
	if math.Abs(peakR-rExact) > 0.12*rExact {
		t.Fatalf("peak density at r=%v, exact shock at %v", peakR, rExact)
	}
	// Peak compression should approach (gamma+1)/(gamma-1) = 6 but is
	// smeared by q; accept a broad band that still proves a strong
	// shock formed.
	if peak < 2.5 || peak > 6.8 {
		t.Fatalf("peak density %v outside [2.5, 6.8]", peak)
	}
	// Centre should be strongly evacuated.
	if rho[0] > 1.0 {
		t.Fatalf("central density %v, want < 1", rho[0])
	}
	if drift := res.EnergyDrift(); drift > 1e-9 {
		t.Fatalf("energy drift %v", drift)
	}
}

func TestSaltzmannPiston(t *testing.T) {
	res := run(t, bookleaf.Config{Problem: "saltzmann", NX: 60, NY: 6, TEnd: 0.5})
	// Shock speed 4/3: at t=0.5 the shock is at x=2/3, piston at 0.5.
	xs, rho := res.XProfile(res.Rho)
	var behind []float64
	for i, x := range xs {
		if x > 0.52 && x < 0.62 {
			behind = append(behind, rho[i])
		}
	}
	if len(behind) == 0 {
		t.Fatal("no samples behind shock")
	}
	med := median(behind)
	if math.Abs(med-4) > 1.0 {
		t.Fatalf("post-shock density %v, exact 4", med)
	}
	// Ahead of the shock the gas is undisturbed.
	for i, x := range xs {
		if x > 0.8 {
			if math.Abs(rho[i]-1) > 0.1 {
				t.Fatalf("pre-shock density at x=%v: %v", x, rho[i])
			}
		}
	}
	// Piston work must be positive and the audit closed.
	if res.ExternalWork <= 0 {
		t.Fatalf("external work %v", res.ExternalWork)
	}
	if drift := res.EnergyDrift(); drift > 1e-9 {
		t.Fatalf("energy audit drift %v", drift)
	}
}

func TestEulerianSodStaysOnMesh(t *testing.T) {
	res := run(t, bookleaf.Config{Problem: "sod", NX: 100, NY: 2, ALE: "eulerian"})
	// Nodes must sit exactly on the generated mesh after every remap.
	for n := range res.X {
		if res.X[n] != res.Mesh.X[n] || res.Y[n] != res.Mesh.Y[n] {
			t.Fatalf("node %d drifted off the Eulerian mesh", n)
		}
	}
	rp := exact.Sod(0.5)
	xs, rho := res.XProfile(res.Rho)
	l1 := bookleaf.L1Error(xs, rho, func(x float64) float64 {
		s, _ := rp.Sample(x, 0.25)
		return s.Rho
	})
	if l1 > 0.06 {
		t.Fatalf("Eulerian Sod L1 error = %v", l1)
	}
	if math.Abs(res.MassFinal-res.Mass0) > 1e-10*res.Mass0 {
		t.Fatalf("Eulerian mass drift %v -> %v", res.Mass0, res.MassFinal)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []bookleaf.Config{
		{Problem: "nope", NX: 4, NY: 4},
		{Problem: "sod", NX: 0, NY: 4},
		{Problem: "sod", NX: 4, NY: 4, ALE: "weird"},
		{Problem: "sod", NX: 4, NY: 4, Hourglass: "weird"},
		{Problem: "sod", NX: 4, NY: 4, Partitioner: "weird"},
		{Problem: "sod", NX: 4, NY: 4, Ranks: -1},
	}
	for _, cfg := range cases {
		if _, err := bookleaf.Run(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// TestOversizeMeshIsAnError: a mesh past the 32-bit index ceiling is an
// error Run returns, the generator's *mesh.TooLargeError, where it used
// to be an out-of-memory crash no caller could recover from, including
// sizes whose element count overflows int.
func TestOversizeMeshIsAnError(t *testing.T) {
	for _, cfg := range []bookleaf.Config{
		{Problem: "sod", NX: 100000, NY: 100000},
		{Problem: "noh", NX: 1 << 32, NY: 1 << 32, Ranks: 2, Reorder: "hilbert"},
		{Problem: "nohdisc", NX: 1 << 40},
	} {
		var tl *mesh.TooLargeError
		if _, err := bookleaf.Run(cfg); !errors.As(err, &tl) {
			t.Errorf("%s %dx%d: err = %v, want a *mesh.TooLargeError", cfg.Problem, cfg.NX, cfg.NY, err)
		}
	}
}

func TestMaxStepsRespected(t *testing.T) {
	res := run(t, bookleaf.Config{Problem: "sod", NX: 32, NY: 2, MaxSteps: 5})
	if res.Steps != 5 {
		t.Fatalf("steps = %d, want 5", res.Steps)
	}
}

func TestTimerBreakdownPresent(t *testing.T) {
	// The default fused schedule reports the merged kernels; the NoFuse
	// ablation reproduces the paper's Table II breakdown.
	res := run(t, bookleaf.Config{Problem: "noh", NX: 12, NY: 12, MaxSteps: 20})
	for _, k := range []string{"qforce", "lagupdate", "getacc", "getdt"} {
		if _, ok := res.Timers[k]; !ok {
			t.Fatalf("fused: missing timer %q (have %v)", k, keys(res.Timers))
		}
	}
	res = run(t, bookleaf.Config{Problem: "noh", NX: 12, NY: 12, MaxSteps: 20, NoFuse: true})
	for _, k := range []string{"getq", "getforce", "getacc", "getgeom", "getrho", "getein", "getpc", "getdt"} {
		if _, ok := res.Timers[k]; !ok {
			t.Fatalf("unfused: missing timer %q (have %v)", k, keys(res.Timers))
		}
	}
	// getq dominates the element kernels in this implementation, as in
	// the paper's breakdown (sanity only, not timing-precise).
	if res.Timers["getq"] <= res.Timers["getpc"] {
		t.Logf("warning: getq (%v) not above getpc (%v) on this host", res.Timers["getq"], res.Timers["getpc"])
	}
}

func TestHourglassOverride(t *testing.T) {
	for _, hg := range []string{"none", "filter", "subzonal"} {
		res := run(t, bookleaf.Config{Problem: "sod", NX: 16, NY: 2, MaxSteps: 3, Hourglass: hg})
		if res.Steps != 3 {
			t.Fatalf("hg=%s did not run", hg)
		}
	}
}

func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	return c[len(c)/2]
}

func keys(m map[string]float64) string {
	var parts []string
	for k := range m {
		parts = append(parts, k)
	}
	return strings.Join(parts, ",")
}
