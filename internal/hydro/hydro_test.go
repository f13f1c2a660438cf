package hydro

import (
	"errors"
	"math"
	"testing"

	"bookleaf/internal/eos"
	"bookleaf/internal/mesh"
	"bookleaf/internal/obs"
	"bookleaf/internal/par"
)

func boxMesh(t testing.TB, nx, ny int) *mesh.Mesh {
	t.Helper()
	m, err := mesh.Rect(mesh.RectSpec{NX: nx, NY: ny, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: mesh.DefaultWalls()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNewStateRefusesUnaddressableMesh: the node gather indexes the
// corner arrays through 32-bit slots cornerStride·e+k, so a mesh past
// what those address is an error from NewState, before it allocates,
// not a silent wrap.
func TestNewStateRefusesUnaddressableMesh(t *testing.T) {
	g, err := eos.NewIdealGas(1.4)
	if err != nil {
		t.Fatal(err)
	}
	m := &mesh.Mesh{NEl: math.MaxInt32/cornerStride + 1}
	if _, err := NewState(m, DefaultOptions(g), nil, nil); err == nil {
		t.Fatalf("NewState accepted %d elements", m.NEl)
	}
}

func uniformState(t testing.TB, m *mesh.Mesh, rho, ein float64, hg HourglassControl) *State {
	t.Helper()
	g, err := eos.NewIdealGas(1.4)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(g)
	opt.Hourglass = hg
	rhoA := make([]float64, m.NEl)
	einA := make([]float64, m.NEl)
	for e := range rhoA {
		rhoA[e] = rho
		einA[e] = ein
	}
	s, err := NewState(m, opt, rhoA, einA)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStateMassesConsistent(t *testing.T) {
	m := boxMesh(t, 4, 4)
	s := uniformState(t, m, 2.0, 1.0, HGSubzonal)
	if tm := s.TotalMass(); math.Abs(tm-2.0) > 1e-12 {
		t.Fatalf("total mass = %v, want 2", tm)
	}
	// Nodal masses sum to total mass.
	var nd float64
	for n := 0; n < m.NNd; n++ {
		nd += s.NdMass[n]
	}
	if math.Abs(nd-2.0) > 1e-12 {
		t.Fatalf("nodal mass total = %v, want 2", nd)
	}
	// Corner masses sum to element masses.
	for e := 0; e < m.NEl; e++ {
		var cm float64
		for k := 0; k < 4; k++ {
			cm += s.CMass[s.CornerStride()*e+k]
		}
		if math.Abs(cm-s.Mass[e]) > 1e-14 {
			t.Fatalf("element %d corner masses %v != mass %v", e, cm, s.Mass[e])
		}
	}
}

func TestNewStateValidation(t *testing.T) {
	m := boxMesh(t, 2, 2)
	g, _ := eos.NewIdealGas(1.4)
	opt := DefaultOptions(g)
	if _, err := NewState(m, opt, make([]float64, 3), make([]float64, m.NEl)); err == nil {
		t.Fatal("short rho accepted")
	}
	bad := make([]float64, m.NEl)
	if _, err := NewState(m, opt, bad, bad); err == nil {
		t.Fatal("zero density accepted")
	}
	// Region without material.
	rho := []float64{1, 1, 1, 1}
	m.Region[2] = 3
	if _, err := NewState(m, opt, rho, rho); err == nil {
		t.Fatal("missing material accepted")
	}
}

func TestOptionsValidate(t *testing.T) {
	g, _ := eos.NewIdealGas(1.4)
	opt := DefaultOptions(g)
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := opt
	bad.CFL = 0
	if bad.Validate() == nil {
		t.Fatal("CFL=0 accepted")
	}
	bad = opt
	bad.DtGrowth = 0.5
	if bad.Validate() == nil {
		t.Fatal("DtGrowth<1 accepted")
	}
	bad = opt
	bad.Materials = nil
	if bad.Validate() == nil {
		t.Fatal("no materials accepted")
	}
}

func TestUniformGasStaysAtRest(t *testing.T) {
	m := boxMesh(t, 6, 6)
	s := uniformState(t, m, 1.0, 2.0, HGSubzonal)
	tm := obs.NewClock()
	for i := 0; i < 20; i++ {
		if _, err := s.Step(tm, nil); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < m.NNd; n++ {
		if math.Abs(s.U[n]) > 1e-12 || math.Abs(s.V[n]) > 1e-12 {
			t.Fatalf("node %d moved: u=(%v,%v)", n, s.U[n], s.V[n])
		}
	}
	for e := 0; e < m.NEl; e++ {
		if math.Abs(s.Rho[e]-1) > 1e-12 || math.Abs(s.Ein[e]-2) > 1e-12 {
			t.Fatalf("element %d drifted: rho=%v ein=%v", e, s.Rho[e], s.Ein[e])
		}
	}
}

func TestQZeroForUniformTranslationAndPositiveForCompression(t *testing.T) {
	m := boxMesh(t, 4, 4)
	s := uniformState(t, m, 1, 1, HGNone)
	// Uniform translation: no velocity differences, q must vanish.
	for n := range s.U {
		s.U[n] = 0.3
		s.V[n] = -0.2
	}
	s.GetQ(0, m.NEl)
	for e := 0; e < m.NEl; e++ {
		if s.Q[e] != 0 {
			t.Fatalf("translation q[%d] = %v, want 0", e, s.Q[e])
		}
	}
	// Uniform compression towards the centre: q must be positive.
	for n := range s.U {
		s.U[n] = -(s.X[n] - 0.5)
		s.V[n] = -(s.Y[n] - 0.5)
	}
	s.GetQ(0, m.NEl)
	pos := 0
	for e := 0; e < m.NEl; e++ {
		if s.Q[e] < 0 {
			t.Fatalf("q[%d] = %v negative", e, s.Q[e])
		}
		if s.Q[e] > 0 {
			pos++
		}
	}
	if pos == 0 {
		t.Fatal("no element produced viscosity under compression")
	}
}

func TestQZeroForUniformExpansion(t *testing.T) {
	m := boxMesh(t, 4, 4)
	s := uniformState(t, m, 1, 1, HGNone)
	for n := range s.U {
		s.U[n] = s.X[n] - 0.5
		s.V[n] = s.Y[n] - 0.5
	}
	s.GetQ(0, m.NEl)
	for e := 0; e < m.NEl; e++ {
		if s.Q[e] != 0 {
			t.Fatalf("expansion q[%d] = %v, want 0", e, s.Q[e])
		}
	}
}

func TestForcesBalancePerElement(t *testing.T) {
	// Corner forces of every element must sum to zero (momentum
	// conservation), for every hourglass scheme, even on perturbed
	// meshes with velocity noise.
	for _, hg := range []HourglassControl{HGNone, HGFilter, HGSubzonal} {
		m := boxMesh(t, 5, 5)
		// Perturb interior nodes deterministically.
		for n := 0; n < m.NNd; n++ {
			if m.BCs[n] == mesh.BCNone {
				m.X[n] += 0.02 * math.Sin(float64(7*n))
				m.Y[n] += 0.02 * math.Cos(float64(3*n))
			}
		}
		s := uniformState(t, m, 1, 1, hg)
		for n := range s.U {
			s.U[n] = 0.1 * math.Sin(float64(5*n))
			s.V[n] = 0.1 * math.Cos(float64(11*n))
		}
		copy(s.U0, s.U)
		copy(s.V0, s.V)
		s.GetQ(0, m.NEl)
		s.GetForce(0, m.NEl, s.U0, s.V0)
		for e := 0; e < m.NEl; e++ {
			var fx, fy float64
			for k := 0; k < 4; k++ {
				fx += s.FX[s.CornerStride()*e+k]
				fy += s.FY[s.CornerStride()*e+k]
			}
			if math.Abs(fx) > 1e-12 || math.Abs(fy) > 1e-12 {
				t.Fatalf("hg=%v element %d net force (%v,%v)", hg, e, fx, fy)
			}
		}
	}
}

func TestPressureForcePushesOutward(t *testing.T) {
	// A single high-pressure element in a cold surround: its corner
	// forces should point away from its centre.
	m := boxMesh(t, 3, 3)
	s := uniformState(t, m, 1, 0.001, HGNone)
	centre := 4 // middle element of 3x3
	s.Ein[centre] = 10
	s.GetPC(0, m.NEl)
	s.GetForce(0, m.NEl, s.U0, s.V0)
	var x, y [4]float64
	m.GatherCoords(centre, &x, &y) // nothing has moved
	cx := 0.25 * (x[0] + x[1] + x[2] + x[3])
	cy := 0.25 * (y[0] + y[1] + y[2] + y[3])
	for k := 0; k < 4; k++ {
		rx := x[k] - cx
		ry := y[k] - cy
		dot := rx*s.FX[s.CornerStride()*centre+k] + ry*s.FY[s.CornerStride()*centre+k]
		if dot <= 0 {
			t.Fatalf("corner %d force not outward (dot=%v)", k, dot)
		}
	}
}

func TestEnergyConservationLagrangian(t *testing.T) {
	// Gas with an off-centre hot spot in a reflective box: total
	// energy must be conserved to round-off by the compatible update.
	for _, hg := range []HourglassControl{HGNone, HGFilter, HGSubzonal} {
		m := boxMesh(t, 8, 8)
		g, _ := eos.NewIdealGas(1.4)
		opt := DefaultOptions(g)
		opt.Hourglass = hg
		rho := make([]float64, m.NEl)
		ein := make([]float64, m.NEl)
		for e := range rho {
			rho[e] = 1
			ein[e] = 0.1
		}
		ein[9] = 5 // hot spot
		s, err := NewState(m, opt, rho, ein)
		if err != nil {
			t.Fatal(err)
		}
		e0 := s.TotalEnergy()
		for i := 0; i < 60; i++ {
			if _, err := s.Step(nil, nil); err != nil {
				t.Fatalf("hg=%v step %d: %v", hg, i, err)
			}
		}
		drift := math.Abs(s.TotalEnergy()-e0) / e0
		if drift > 1e-11 {
			t.Fatalf("hg=%v energy drift %v", hg, drift)
		}
		if s.Time <= 0 {
			t.Fatal("time did not advance")
		}
	}
}

// TestJWLProductsExpand steps the one material no deck uses: a quarter
// disc of hot LX-14 detonation products (JWL) in ideal-gas air, with
// the hourglass filter. The compatible update must keep total energy
// to round-off (less the floor energy, zero on a healthy run) and the
// products must expand: their mean density falls below the initial 1.
func TestJWLProductsExpand(t *testing.T) {
	const n, rHE = 24, 0.25
	m, err := mesh.Rect(mesh.RectSpec{
		NX: n, NY: n, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: mesh.DefaultWalls(),
		RegionOf: func(cx, cy float64) int {
			if math.Hypot(cx, cy) < rHE {
				return 0 // products
			}
			return 1 // air
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	air, err := eos.NewIdealGas(1.4)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(eos.LX14(), air)
	opt.Hourglass = HGFilter
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	products := 0
	for e := range rho {
		rho[e], ein[e] = 0.1, 0.5
		if m.Region[e] == 0 {
			rho[e], ein[e] = 1, 4
			products++
		}
	}
	if products == 0 {
		t.Fatal("no products element")
	}
	s, err := NewState(m, opt, rho, ein)
	if err != nil {
		t.Fatal(err)
	}
	e0 := s.TotalEnergy()
	for i := 0; i < 300; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if drift := math.Abs(s.TotalEnergy()-e0-s.FloorEnergy) / e0; drift > 1e-11 {
		t.Errorf("energy drift %v after %d steps (floor energy %v)", drift, s.StepCount, s.FloorEnergy)
	}
	mean := 0.0
	for e := range rho {
		if m.Region[e] == 0 {
			mean += s.Rho[e] / float64(products)
		}
	}
	if mean >= 1 {
		t.Errorf("products mean density %v after %d steps, want below the initial 1", mean, s.StepCount)
	}
}

func TestMassExactlyConserved(t *testing.T) {
	m := boxMesh(t, 6, 6)
	s := uniformState(t, m, 1, 1, HGSubzonal)
	s.Ein[10] = 4
	s.GetPC(0, m.NEl)
	m0 := s.TotalMass()
	for i := 0; i < 40; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.TotalMass() != m0 {
		t.Fatalf("mass changed: %v -> %v", m0, s.TotalMass())
	}
	// Density * volume must reproduce mass exactly per element.
	for e := 0; e < m.NEl; e++ {
		if math.Abs(s.Rho[e]*s.Vol[e]-s.Mass[e]) > 1e-14*s.Mass[e] {
			t.Fatalf("element %d rho*vol != mass", e)
		}
	}
}

func TestSymmetryPreserved(t *testing.T) {
	// A centred hot spot on a symmetric mesh must evolve with exact
	// left-right mirror symmetry.
	m := boxMesh(t, 6, 6)
	g, _ := eos.NewIdealGas(1.4)
	opt := DefaultOptions(g)
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	for e := range rho {
		rho[e] = 1
		ein[e] = 0.1
	}
	// Hot 2x2 block in the centre (elements at rows 2-3, cols 2-3).
	for _, e := range []int{14, 15, 20, 21} {
		ein[e] = 3
	}
	s, err := NewState(m, opt, rho, ein)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Mirror element: row j, col i <-> col 5-i.
	for j := 0; j < 6; j++ {
		for i := 0; i < 3; i++ {
			a := j*6 + i
			b := j*6 + (5 - i)
			if math.Abs(s.Rho[a]-s.Rho[b]) > 1e-9 {
				t.Fatalf("density symmetry broken: rho[%d]=%v rho[%d]=%v", a, s.Rho[a], b, s.Rho[b])
			}
		}
	}
}

func TestScatterAccMatchesGather(t *testing.T) {
	mk := func(scatter bool) *State {
		m := boxMesh(t, 5, 5)
		g, _ := eos.NewIdealGas(1.4)
		opt := DefaultOptions(g)
		opt.ScatterAcc = scatter
		rho := make([]float64, m.NEl)
		ein := make([]float64, m.NEl)
		for e := range rho {
			rho[e] = 1
			ein[e] = 0.1 + 0.01*float64(e%7)
		}
		s, err := NewState(m, opt, rho, ein)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(false), mk(true)
	for i := 0; i < 10; i++ {
		if _, err := a.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for n := range a.U {
		if a.U[n] != b.U[n] || a.V[n] != b.V[n] {
			t.Fatalf("gather/scatter acceleration differ at node %d", n)
		}
	}
}

func TestThreadedStepBitwiseMatchesSerial(t *testing.T) {
	mk := func(threads int) *State {
		m := boxMesh(t, 8, 8)
		g, _ := eos.NewIdealGas(1.4)
		opt := DefaultOptions(g)
		rho := make([]float64, m.NEl)
		ein := make([]float64, m.NEl)
		for e := range rho {
			rho[e] = 1
			ein[e] = 0.1 + 0.02*float64(e%5)
		}
		s, err := NewState(m, opt, rho, ein)
		if err != nil {
			t.Fatal(err)
		}
		s.Pool = par.New(threads)
		return s
	}
	a, b := mk(1), mk(4)
	for i := 0; i < 15; i++ {
		da, err := a.Step(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.Step(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if da != db {
			t.Fatalf("step %d: dt differs %v vs %v", i, da, db)
		}
	}
	for e := range a.Rho {
		if a.Rho[e] != b.Rho[e] || a.Ein[e] != b.Ein[e] {
			t.Fatalf("threaded result differs at element %d", e)
		}
	}
}

func TestPistonEnergyAudit(t *testing.T) {
	// Left wall pushes into the gas: total energy minus injected work
	// must be constant.
	m, err := mesh.Rect(mesh.RectSpec{
		NX: 20, NY: 4, X0: 0, X1: 1, Y0: 0, Y1: 0.2,
		Walls: mesh.WallSpec{Left: mesh.Piston, Right: mesh.FixU, Bottom: mesh.FixV, Top: mesh.FixV},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := eos.NewIdealGas(5.0 / 3.0)
	opt := DefaultOptions(g)
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	for e := range rho {
		rho[e] = 1
		ein[e] = 1e-6
	}
	s, err := NewState(m, opt, rho, ein)
	if err != nil {
		t.Fatal(err)
	}
	s.PistonU = 1
	for n := 0; n < m.NNd; n++ {
		if m.BCs[n]&mesh.Piston != 0 {
			s.U[n] = 1
		}
	}
	e0 := s.TotalEnergy()
	for i := 0; i < 200; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
		if s.Time > 0.2 {
			break
		}
	}
	if s.ExternalWork <= 0 {
		t.Fatalf("piston injected no work: %v", s.ExternalWork)
	}
	balance := math.Abs(s.TotalEnergy() - e0 - s.ExternalWork)
	if balance > 1e-10*(e0+s.ExternalWork) {
		t.Fatalf("energy audit off by %v (E=%v W=%v)", balance, s.TotalEnergy(), s.ExternalWork)
	}
}

func TestDtGrowthCapAndFirstStep(t *testing.T) {
	m := boxMesh(t, 4, 4)
	s := uniformState(t, m, 1, 1, HGSubzonal)
	dt0, err := s.Step(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dt0 != s.Opt.DtInitial {
		t.Fatalf("first dt = %v, want DtInitial %v", dt0, s.Opt.DtInitial)
	}
	dt1, err := s.Step(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dt1 > s.Opt.DtGrowth*dt0+1e-18 {
		t.Fatalf("dt grew too fast: %v after %v", dt1, dt0)
	}
}

func TestDtCollapseReported(t *testing.T) {
	m := boxMesh(t, 4, 4)
	s := uniformState(t, m, 1, 1, HGSubzonal)
	s.Opt.DtMin = 1 // impossible to satisfy
	s.StepCount = 1 // force a GetDt call
	_, err := s.Step(nil, nil)
	var collapse *ErrDtCollapse
	if !errors.As(err, &collapse) {
		t.Fatalf("expected ErrDtCollapse, got %v", err)
	}
}

func TestTangledMeshReported(t *testing.T) {
	m := boxMesh(t, 3, 3)
	s := uniformState(t, m, 1, 1, HGNone)
	// A huge prescribed velocity on one interior node tangles the mesh
	// within one step.
	for n := 0; n < m.NNd; n++ {
		if m.BCs[n] == mesh.BCNone {
			s.U[n] = 1e6
			break
		}
	}
	var tangled *ErrTangled
	var err error
	for i := 0; i < 5 && err == nil; i++ {
		_, err = s.Step(nil, nil)
	}
	if !errors.As(err, &tangled) {
		t.Fatalf("expected ErrTangled, got %v", err)
	}
}

func TestGetDtControllerIsSmallestCell(t *testing.T) {
	// Refine one region by shrinking... instead: raise sound speed of
	// one element so it controls the CFL limit.
	m := boxMesh(t, 4, 4)
	s := uniformState(t, m, 1, 1, HGNone)
	s.Ein[7] = 100
	s.GetPC(0, m.NEl)
	s.DtPrev = 1 // avoid growth cap masking the CFL result
	dt, ctrl := s.GetDt()
	if ctrl != 7 {
		t.Fatalf("controller = %d, want 7", ctrl)
	}
	if dt <= 0 || dt >= 1 {
		t.Fatalf("dt = %v out of range", dt)
	}
}

func TestHooksAreInvoked(t *testing.T) {
	m := boxMesh(t, 3, 3)
	s := uniformState(t, m, 1, 1, HGNone)
	var reduced, forces, vels int
	hooks := &Hooks{
		ReduceDt: func(dt float64, e int) (float64, int) {
			reduced++
			return dt, e
		},
		ExchangeForces:     func(*State) { forces++ },
		ExchangeVelocities: func(*State) { vels++ },
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Step(nil, hooks); err != nil {
			t.Fatal(err)
		}
	}
	if reduced != 3 || forces != 3 || vels != 3 {
		t.Fatalf("hook calls = (%d,%d,%d), want (3,3,3)", reduced, forces, vels)
	}
}

func TestTimersPopulated(t *testing.T) {
	// The fused schedule reports merged kernels under merged names; the
	// unfused ablation keeps the paper's Table II breakdown.
	cases := []struct {
		name   string
		fuse   bool
		timers []string
	}{
		{"fused", true, []string{TimerQForce, TimerLagUpdate, TimerGetAcc}},
		{"unfused", false, []string{TimerGetQ, TimerGetForce, TimerGetAcc, TimerGetGeom, TimerGetRho, TimerGetEin, TimerGetPC}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := boxMesh(t, 4, 4)
			s := uniformState(t, m, 1, 1, HGSubzonal)
			s.Opt.Fuse = tc.fuse
			tm := obs.NewClock()
			for i := 0; i < 3; i++ {
				if _, err := s.Step(tm, nil); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range tc.timers {
				if tm.Count(name) == 0 {
					t.Fatalf("timer %q never recorded", name)
				}
			}
			// getdt skipped on the first step only.
			if tm.Count(TimerGetDt) != 2 {
				t.Fatalf("getdt count = %d, want 2", tm.Count(TimerGetDt))
			}
		})
	}
}

func TestHourglassControlSuppressesModes(t *testing.T) {
	// Excite a pure hourglass velocity pattern on one element of a
	// mesh; with control enabled the pattern's kinetic energy must
	// decay faster than without.
	run := func(hg HourglassControl) float64 {
		m := boxMesh(t, 4, 4)
		s := uniformState(t, m, 1, 1, hg)
		// Alternate corner velocities on interior nodes (hourglass-like).
		for j := 0; j <= 4; j++ {
			for i := 0; i <= 4; i++ {
				n := j*5 + i
				if m.BCs[n] == mesh.BCNone {
					s.U[n] = 0.05 * float64(1-2*((i+j)%2))
				}
			}
		}
		for i := 0; i < 25; i++ {
			if _, err := s.Step(nil, nil); err != nil {
				t.Fatalf("hg=%v: %v", hg, err)
			}
		}
		return s.KineticEnergy()
	}
	keNone := run(HGNone)
	keFilter := run(HGFilter)
	keSub := run(HGSubzonal)
	if keFilter >= keNone {
		t.Fatalf("filter did not damp hourglass: %v >= %v", keFilter, keNone)
	}
	if keSub >= keNone {
		t.Fatalf("subzonal did not damp hourglass: %v >= %v", keSub, keNone)
	}
}

func TestHourglassStrings(t *testing.T) {
	if HGNone.String() != "none" || HGFilter.String() != "filter" || HGSubzonal.String() != "subzonal" {
		t.Fatal("hourglass names wrong")
	}
	if HourglassControl(42).String() == "" {
		t.Fatal("unknown hourglass name empty")
	}
}
