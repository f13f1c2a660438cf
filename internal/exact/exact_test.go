package exact

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSodStarState(t *testing.T) {
	// Reference values from Toro, "Riemann Solvers and Numerical
	// Methods for Fluid Dynamics", Test 1: p* = 0.30313, u* = 0.92745.
	rp := Sod(0.5)
	p, u, err := rp.solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.30313) > 2e-5 {
		t.Fatalf("p* = %v, want 0.30313", p)
	}
	if math.Abs(u-0.92745) > 2e-5 {
		t.Fatalf("u* = %v, want 0.92745", u)
	}
}

func TestSodSampleRegions(t *testing.T) {
	rp := Sod(0.5)
	tEnd := 0.25
	// Far left: undisturbed left state.
	s, err := rp.Sample(0.05, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rho != 1 || s.P != 1 {
		t.Fatalf("far-left state = %+v, want left state", s)
	}
	// Far right: undisturbed right state.
	s, _ = rp.Sample(0.98, tEnd)
	if s.Rho != 0.125 || s.P != 0.1 {
		t.Fatalf("far-right state = %+v, want right state", s)
	}
	// Between contact and shock: rho ≈ 0.26557 (Toro).
	s, _ = rp.Sample(0.80, tEnd)
	if math.Abs(s.Rho-0.26557) > 2e-4 {
		t.Fatalf("post-shock rho = %v, want 0.26557", s.Rho)
	}
	// Between rarefaction tail and contact: rho ≈ 0.42632.
	s, _ = rp.Sample(0.60, tEnd)
	if math.Abs(s.Rho-0.42632) > 2e-4 {
		t.Fatalf("star-left rho = %v, want 0.42632", s.Rho)
	}
}

func TestSodShockPosition(t *testing.T) {
	rp := Sod(0.5)
	x, err := rp.ShockPosition(0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Shock speed ≈ 1.75216 -> x ≈ 0.5 + 0.43804.
	if math.Abs(x-0.93804) > 1e-3 {
		t.Fatalf("shock position = %v, want ≈0.93804", x)
	}
}

func TestSampleBeforeTimeZeroReturnsInitial(t *testing.T) {
	rp := Sod(0.5)
	s, err := rp.Sample(0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s != rp.Left {
		t.Fatalf("t=0 left sample = %+v", s)
	}
	s, _ = rp.Sample(0.7, 0)
	if s != rp.Right {
		t.Fatalf("t=0 right sample = %+v", s)
	}
}

func TestRiemannVacuumDetected(t *testing.T) {
	rp := RiemannProblem{
		Left:  GasState{Rho: 1, U: -10, P: 0.01},
		Right: GasState{Rho: 1, U: 10, P: 0.01},
		Gamma: 1.4,
	}
	if _, _, err := rp.solve(); err == nil {
		t.Fatal("vacuum-generating problem accepted")
	}
}

func TestRiemannSymmetricProblemHasZeroContactVelocity(t *testing.T) {
	rp := RiemannProblem{
		Left:  GasState{Rho: 1, U: 1, P: 1},
		Right: GasState{Rho: 1, U: -1, P: 1},
		Gamma: 1.4,
	}
	p, u, err := rp.solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u) > 1e-12 {
		t.Fatalf("symmetric collision u* = %v, want 0", u)
	}
	if p <= 1 {
		t.Fatalf("colliding streams p* = %v, want > 1", p)
	}
}

func TestRiemannContactConsistency(t *testing.T) {
	// Across the contact the pressure and velocity must be continuous.
	rp := Sod(0.5)
	pStar, uStar, _ := rp.solve()
	tEnd := 0.2
	xc := 0.5 + uStar*tEnd
	l, _ := rp.Sample(xc-1e-6, tEnd)
	r, _ := rp.Sample(xc+1e-6, tEnd)
	if math.Abs(l.P-pStar) > 1e-8 || math.Abs(r.P-pStar) > 1e-8 {
		t.Fatalf("pressure not continuous at contact: %v vs %v (p*=%v)", l.P, r.P, pStar)
	}
	if math.Abs(l.U-r.U) > 1e-8 {
		t.Fatalf("velocity jump at contact: %v vs %v", l.U, r.U)
	}
	if math.Abs(l.Rho-r.Rho) < 1e-6 {
		t.Fatal("expected density jump at contact")
	}
}

func TestNohPostShockValues(t *testing.T) {
	n := NewNoh()
	if d := n.PostShockDensity(); math.Abs(d-16) > 1e-12 {
		t.Fatalf("post-shock density = %v, want 16", d)
	}
	if r := n.ShockRadius(0.6); math.Abs(r-0.2) > 1e-12 {
		t.Fatalf("shock radius at t=0.6 = %v, want 0.2", r)
	}
	if p := n.postShockPressure(); math.Abs(p-16.0/3.0) > 1e-12 {
		t.Fatalf("post-shock pressure = %v, want 16/3", p)
	}
}

func TestNohSample(t *testing.T) {
	n := NewNoh()
	rho, ur, e, p := n.Sample(0.1, 0.6)
	if rho != 16 || ur != 0 || e != 0.5 {
		t.Fatalf("inside state = (%v,%v,%v,%v)", rho, ur, e, p)
	}
	rho, ur, e, _ = n.Sample(0.4, 0.6)
	want := 1 + 0.6/0.4
	if math.Abs(rho-want) > 1e-12 || ur != -1 || e != 0 {
		t.Fatalf("outside state rho = %v, want %v (u=%v e=%v)", rho, want, ur, e)
	}
}

func TestNohInitialState(t *testing.T) {
	n := NewNoh()
	rho, ur, e, p := n.Sample(0.3, 0)
	if rho != 1 || ur != -1 || e != 0 || p != 0 {
		t.Fatalf("t=0 state = (%v,%v,%v,%v)", rho, ur, e, p)
	}
}

func TestSedovAlphaCylindrical(t *testing.T) {
	// Literature value for gamma = 1.4, cylindrical: alpha ≈ 0.984.
	s, err := NewSedov(1.4, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Alpha()-0.984) > 0.01 {
		t.Fatalf("alpha(j=2, gamma=1.4) = %v, want ≈0.984", s.Alpha())
	}
}

func TestSedovAlphaSpherical(t *testing.T) {
	// Literature value for gamma = 1.4, spherical: alpha ≈ 0.8511.
	s, err := NewSedov(1.4, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Alpha()-0.8511) > 0.01 {
		t.Fatalf("alpha(j=3, gamma=1.4) = %v, want ≈0.8511", s.Alpha())
	}
}

func TestSedovShockRadiusScaling(t *testing.T) {
	s, err := NewSedov(1.4, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// R ∝ t^(1/2) in 2-D.
	r1 := s.ShockRadius(1)
	r4 := s.ShockRadius(4)
	if math.Abs(r4/r1-2) > 1e-12 {
		t.Fatalf("R(4)/R(1) = %v, want 2", r4/r1)
	}
}

func TestSedovPostShockJump(t *testing.T) {
	s, _ := NewSedov(1.4, 2, 1, 1)
	if d := s.PostShockDensity(); math.Abs(d-6) > 1e-12 {
		t.Fatalf("post-shock density = %v, want 6", d)
	}
	// Just inside the shock the sampled density approaches the jump value.
	R := s.ShockRadius(1)
	rho, _, _ := s.Sample(0.9999*R, 1)
	if math.Abs(rho-6) > 0.05 {
		t.Fatalf("rho just inside shock = %v, want ≈6", rho)
	}
}

func TestSedovProfileMonotoneDensity(t *testing.T) {
	// Density decreases monotonically from the shock towards the origin.
	s, _ := NewSedov(1.4, 2, 1, 1)
	R := s.ShockRadius(1)
	prev := math.Inf(1)
	for i := 100; i >= 1; i-- {
		rho, _, _ := s.Sample(float64(i)/100*R*0.999, 1)
		if rho > prev+1e-9 {
			t.Fatalf("density not monotone at lambda=%v: %v > %v", float64(i)/100, rho, prev)
		}
		prev = rho
	}
	// Near the origin the density is tiny for gamma=1.4.
	rho0, _, _ := s.Sample(0.01*R, 1)
	if rho0 > 0.1 {
		t.Fatalf("central density = %v, want ≈0", rho0)
	}
}

func TestSedovCentralPressureFinite(t *testing.T) {
	s, _ := NewSedov(1.4, 2, 1, 1)
	R := s.ShockRadius(1)
	_, _, pNear := s.Sample(0.05*R, 1)
	_, _, pShock := s.Sample(0.999*R, 1)
	if pNear <= 0 || math.IsNaN(pNear) || math.IsInf(pNear, 0) {
		t.Fatalf("central pressure = %v", pNear)
	}
	// Sedov interior pressure plateaus at ~0.3-0.5 of the shock value.
	if pNear > pShock || pNear < 0.1*pShock {
		t.Fatalf("central pressure %v vs shock pressure %v outside expected band", pNear, pShock)
	}
}

func TestSedovAheadOfShockAmbient(t *testing.T) {
	s, _ := NewSedov(1.4, 2, 1, 1)
	rho, ur, p := s.Sample(10*s.ShockRadius(1), 1)
	if rho != 1 || ur != 0 || p != 0 {
		t.Fatalf("ambient state = (%v,%v,%v)", rho, ur, p)
	}
}

func TestSedovRejectsBadInput(t *testing.T) {
	if _, err := NewSedov(1.4, 1, 1, 1); err == nil {
		t.Fatal("dim=1 accepted")
	}
	if _, err := NewSedov(1.0, 2, 1, 1); err == nil {
		t.Fatal("gamma=1 accepted")
	}
	if _, err := NewSedov(1.4, 2, -1, 1); err == nil {
		t.Fatal("negative energy accepted")
	}
}

func TestSedovEnergyConventionRoundTrip(t *testing.T) {
	// Doubling E at fixed t scales R by 2^(1/4) in 2-D.
	s1, _ := NewSedov(1.4, 2, 1, 1)
	s2, _ := NewSedov(1.4, 2, 2, 1)
	ratio := s2.ShockRadius(1) / s1.ShockRadius(1)
	if math.Abs(ratio-math.Pow(2, 0.25)) > 1e-12 {
		t.Fatalf("R ratio = %v, want 2^(1/4)", ratio)
	}
}

func TestRiemannSelfSimilarityProperty(t *testing.T) {
	// The solution depends on x and t only through x/t: scaling both
	// by the same factor leaves the state unchanged.
	rp := Sod(0)
	f := func(sRaw, kRaw float64) bool {
		s := math.Mod(sRaw, 3)
		k := 0.1 + math.Abs(math.Mod(kRaw, 10))
		a, err := rp.Sample(s*0.1, 0.1)
		if err != nil {
			return false
		}
		b, err := rp.Sample(s*0.1*k, 0.1*k)
		if err != nil {
			return false
		}
		return math.Abs(a.Rho-b.Rho) < 1e-10 &&
			math.Abs(a.U-b.U) < 1e-10 &&
			math.Abs(a.P-b.P) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRiemannSampleMonotonePressureAcrossFan(t *testing.T) {
	// Pressure decreases monotonically through the left rarefaction.
	rp := Sod(0.5)
	tEnd := 0.2
	prev := math.Inf(1)
	for x := 0.2; x < 0.7; x += 0.005 {
		s, err := rp.Sample(x, tEnd)
		if err != nil {
			t.Fatal(err)
		}
		if s.P > prev+1e-12 {
			t.Fatalf("pressure not monotone at x=%v: %v > %v", x, s.P, prev)
		}
		prev = s.P
	}
}

func TestNohSelfConsistencyMass(t *testing.T) {
	// Integrating the exact density over the domain at t recovers the
	// initial mass (the solution is an exact conservation-law weak
	// solution): integrate rho(r) * 2*pi*r dr over [0, 1+t] vs pi*(1+t)^2
	// ... the moving outer edge makes the bookkeeping awkward, so
	// instead check mass inside a Lagrangian radius: material initially
	// inside r0 is inside r0 - t at time t (pre-shock region).
	n := NewNoh()
	tEnd := 0.4
	r0 := 0.9
	rIn := r0 - tEnd
	// Numerically integrate the exact density from the shock to rIn.
	shock := n.ShockRadius(tEnd)
	var mass float64
	const steps = 20000
	dr := (rIn - shock) / steps
	for i := 0; i < steps; i++ {
		r := shock + (float64(i)+0.5)*dr
		rho, _, _, _ := n.Sample(r, tEnd)
		mass += rho * 2 * math.Pi * r * dr
	}
	// Add the post-shock disc.
	mass += n.PostShockDensity() * math.Pi * shock * shock
	want := math.Pi * r0 * r0 // initial uniform density 1
	if math.Abs(mass-want) > 0.01*want {
		t.Fatalf("exact Noh mass %v, want %v", mass, want)
	}
}
