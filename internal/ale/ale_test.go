package ale

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"bookleaf/internal/eos"
	"bookleaf/internal/hydro"
	"bookleaf/internal/mesh"
	"bookleaf/internal/par"
)

// testState builds a box of ideal gas and optionally drags its nodes
// off the initial mesh to create a non-trivial remap.
func testState(t testing.TB, nx, ny int, rhoF, einF func(cx, cy float64) float64) *hydro.State {
	t.Helper()
	m, err := mesh.Rect(mesh.RectSpec{NX: nx, NY: ny, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: mesh.DefaultWalls()})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := eos.NewIdealGas(1.4)
	opt := hydro.DefaultOptions(g)
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	var x, y [4]float64
	for e := 0; e < m.NEl; e++ {
		m.GatherCoords(e, &x, &y)
		cx := 0.25 * (x[0] + x[1] + x[2] + x[3])
		cy := 0.25 * (y[0] + y[1] + y[2] + y[3])
		rho[e] = rhoF(cx, cy)
		ein[e] = einF(cx, cy)
	}
	s, err := hydro.NewState(m, opt, rho, ein)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// displaceInterior pushes interior nodes off the generated mesh by a
// smooth small displacement, leaving walls fixed, then rebuilds the
// mass bookkeeping so the current Rho/Ein fields describe the displaced
// mesh consistently (mass = rho*vol, corner masses, nodal masses) —
// i.e. the state a Lagrangian step would legitimately hand the remap.
func displaceInterior(s *hydro.State, amp float64) {
	m := s.Mesh
	for n := 0; n < m.NNd; n++ {
		if m.BCs[n] != mesh.BCNone {
			continue
		}
		s.X[n] += amp * math.Sin(2*math.Pi*s.Y[n]) * math.Sin(math.Pi*s.X[n])
		s.Y[n] += amp * math.Sin(2*math.Pi*s.X[n]) * math.Sin(math.Pi*s.Y[n])
	}
	rebuildMasses(s)
}

// rebuildMasses makes the mass bookkeeping consistent with the current
// coordinates and Rho field.
func rebuildMasses(s *hydro.State) {
	m := s.Mesh
	var x, y [4]float64
	var sv [4]float64
	for n := range s.NdMass {
		s.NdMass[n] = 0
	}
	for e := 0; e < m.NEl; e++ {
		for k := 0; k < 4; k++ {
			x[k] = s.X[m.ElNd[e][k]]
			y[k] = s.Y[m.ElNd[e][k]]
		}
		vol := 0.5 * ((x[2]-x[0])*(y[3]-y[1]) - (x[3]-x[1])*(y[2]-y[0]))
		s.Vol[e] = vol
		s.Mass[e] = s.Rho[e] * vol
		subVolsInto(&x, &y, &sv)
		cs := s.CornerStride()
		for k := 0; k < 4; k++ {
			s.CMass[cs*e+k] = s.Rho[e] * sv[k]
			s.NdMass[m.ElNd[e][k]] += s.CMass[cs*e+k]
		}
	}
}

func totals(s *hydro.State) (mass, energy, px, py float64) {
	for e := 0; e < s.Mesh.NEl; e++ {
		mass += s.Mass[e]
		energy += s.Mass[e] * s.Ein[e]
	}
	for n := 0; n < s.Mesh.NNd; n++ {
		px += s.NdMass[n] * s.U[n]
		py += s.NdMass[n] * s.V[n]
	}
	return
}

func TestRemapIdentityWhenMeshUnmoved(t *testing.T) {
	s := testState(t, 6, 6, func(cx, cy float64) float64 { return 1 + cx }, func(cx, cy float64) float64 { return 2 - cy })
	r := NewRemapper(Options{Mode: Eulerian}, s)
	rho0 := append([]float64(nil), s.Rho...)
	ein0 := append([]float64(nil), s.Ein...)
	if err := r.Apply(s, nil, nil); err != nil {
		t.Fatal(err)
	}
	for e := range rho0 {
		if math.Abs(s.Rho[e]-rho0[e]) > 1e-13 || math.Abs(s.Ein[e]-ein0[e]) > 1e-13 {
			t.Fatalf("identity remap changed element %d: rho %v->%v ein %v->%v", e, rho0[e], s.Rho[e], ein0[e], s.Ein[e])
		}
	}
}

func TestRemapPreservesConstantField(t *testing.T) {
	// A constant state remapped across a displaced mesh must stay
	// exactly constant (free-stream preservation).
	s := testState(t, 8, 8, func(cx, cy float64) float64 { return 2.5 }, func(cx, cy float64) float64 { return 1.5 })
	displaceInterior(s, 0.02)
	r := NewRemapper(Options{Mode: Eulerian}, s)
	if err := r.Apply(s, nil, nil); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < s.Mesh.NEl; e++ {
		if math.Abs(s.Rho[e]-2.5) > 1e-11 {
			t.Fatalf("constant density broken at element %d: %v", e, s.Rho[e])
		}
		if math.Abs(s.Ein[e]-1.5) > 1e-11 {
			t.Fatalf("constant energy broken at element %d: %v", e, s.Ein[e])
		}
	}
}

func TestRemapConservesMassEnergyMomentum(t *testing.T) {
	s := testState(t, 10, 10,
		func(cx, cy float64) float64 { return 1 + 0.5*math.Sin(2*math.Pi*cx)*math.Cos(math.Pi*cy) + 0.6 },
		func(cx, cy float64) float64 { return 1 + 0.3*cx*cy })
	for n := 0; n < s.Mesh.NNd; n++ {
		s.U[n] = 0.1 * math.Sin(float64(3*n))
		s.V[n] = 0.1 * math.Cos(float64(5*n))
	}
	displaceInterior(s, 0.02)
	m0, e0, px0, py0 := totals(s)
	r := NewRemapper(Options{Mode: Eulerian}, s)
	if err := r.Apply(s, nil, nil); err != nil {
		t.Fatal(err)
	}
	m1, e1, px1, py1 := totals(s)
	if math.Abs(m1-m0) > 1e-12*m0 {
		t.Fatalf("mass not conserved: %v -> %v", m0, m1)
	}
	if math.Abs(e1-e0) > 1e-12*math.Abs(e0) {
		t.Fatalf("internal energy not conserved: %v -> %v", e0, e1)
	}
	// Momentum conservation before wall BCs nulls components: the
	// velocities above violate the wall BCs, so compare loosely by
	// rebuilding without BC zeroing... instead use interior-only flow.
	_ = px0
	_ = py0
	_ = px1
	_ = py1
}

func TestRemapConservesMomentumInteriorFlow(t *testing.T) {
	// Velocity field zero near the walls so BC re-application removes
	// nothing; momentum must then be conserved exactly.
	s := testState(t, 10, 10, func(cx, cy float64) float64 { return 1.5 }, func(cx, cy float64) float64 { return 1 })
	for n := 0; n < s.Mesh.NNd; n++ {
		x, y := s.X[n], s.Y[n]
		// Zero velocity within two node layers of the walls, so the
		// remap cannot advect momentum into BC-zeroed wall nodes.
		if x < 0.25 || x > 0.75 || y < 0.25 || y > 0.75 {
			continue
		}
		bump := math.Pow(math.Sin(math.Pi*x)*math.Sin(math.Pi*y), 2)
		s.U[n] = 0.2 * bump
		s.V[n] = -0.1 * bump
	}
	displaceInterior(s, 0.015)
	_, _, px0, py0 := totals(s)
	r := NewRemapper(Options{Mode: Eulerian}, s)
	if err := r.Apply(s, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, _, px1, py1 := totals(s)
	if math.Abs(px1-px0) > 1e-12 || math.Abs(py1-py0) > 1e-12 {
		t.Fatalf("momentum not conserved: (%v,%v) -> (%v,%v)", px0, py0, px1, py1)
	}
}

func TestRemapRestoresTargetMesh(t *testing.T) {
	s := testState(t, 6, 6, func(cx, cy float64) float64 { return 1 }, func(cx, cy float64) float64 { return 1 })
	displaceInterior(s, 0.02)
	r := NewRemapper(Options{Mode: Eulerian}, s)
	if err := r.Apply(s, nil, nil); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < s.Mesh.NNd; n++ {
		if s.X[n] != s.Mesh.X[n] || s.Y[n] != s.Mesh.Y[n] {
			t.Fatalf("node %d not restored to initial position", n)
		}
	}
	// Density*volume bookkeeping consistent after remap.
	for e := 0; e < s.Mesh.NEl; e++ {
		if math.Abs(s.Rho[e]*s.Vol[e]-s.Mass[e]) > 1e-13*s.Mass[e] {
			t.Fatalf("element %d rho*vol != mass after remap", e)
		}
	}
}

func TestRemapDiscreteMaximumPrinciple(t *testing.T) {
	// Remapped cell values must stay within the min/max of the donor
	// neighbourhood: no new extrema (the van Leer/BJ limiting at work).
	s := testState(t, 12, 12,
		func(cx, cy float64) float64 {
			if cx < 0.5 {
				return 4
			}
			return 0.5
		},
		func(cx, cy float64) float64 {
			if cy < 0.5 {
				return 3
			}
			return 1
		})
	displaceInterior(s, 0.02)
	gMinR, gMaxR := 0.5, 4.0
	gMinE, gMaxE := 1.0, 3.0
	r := NewRemapper(Options{Mode: Eulerian}, s)
	if err := r.Apply(s, nil, nil); err != nil {
		t.Fatal(err)
	}
	tol := 1e-10
	for e := 0; e < s.Mesh.NEl; e++ {
		if s.Rho[e] < gMinR-tol || s.Rho[e] > gMaxR+tol {
			t.Fatalf("density overshoot at element %d: %v", e, s.Rho[e])
		}
		if s.Ein[e] < gMinE-tol || s.Ein[e] > gMaxE+tol {
			t.Fatalf("energy overshoot at element %d: %v", e, s.Ein[e])
		}
	}
}

func TestSecondOrderBeatsFirstOrderOnLinearField(t *testing.T) {
	// Remapping a linear density profile across a displaced mesh:
	// the limited second-order scheme must reproduce it much more
	// accurately than first order.
	run := func(firstOrder bool) float64 {
		s := testState(t, 10, 10, func(cx, cy float64) float64 { return 1 }, func(cx, cy float64) float64 { return 1 })
		displaceInterior(s, 0.025)
		// Define the linear field on the displaced (pre-remap) mesh.
		var x, y [4]float64
		for e := 0; e < s.Mesh.NEl; e++ {
			for k := 0; k < 4; k++ {
				x[k] = s.X[s.Mesh.ElNd[e][k]]
				y[k] = s.Y[s.Mesh.ElNd[e][k]]
			}
			cx := 0.25 * (x[0] + x[1] + x[2] + x[3])
			s.Rho[e] = 1 + cx
		}
		rebuildMasses(s)
		opt := Options{Mode: Eulerian}
		opt.FirstOrder = firstOrder
		r := NewRemapper(opt, s)
		if err := r.Apply(s, nil, nil); err != nil {
			t.Fatal(err)
		}
		var errSum float64
		for e := 0; e < s.Mesh.NEl; e++ {
			s.Mesh.GatherCoords(e, &x, &y)
			cx := 0.25 * (x[0] + x[1] + x[2] + x[3])
			errSum += math.Abs(s.Rho[e] - (1 + cx))
		}
		return errSum
	}
	e1 := run(true)
	e2 := run(false)
	if e2 >= e1 {
		t.Fatalf("second order (%v) not better than first order (%v)", e2, e1)
	}
	if e2 > 0.6*e1 {
		t.Fatalf("second order error %v not substantially below first order %v", e2, e1)
	}
}

func TestSmoothedModeImprovesMeshQuality(t *testing.T) {
	s := testState(t, 8, 8, func(cx, cy float64) float64 { return 1 }, func(cx, cy float64) float64 { return 1 })
	displaceInterior(s, 0.03)
	// Measure worst aspect distortion before and after one smoothing
	// remap via the min corner subvolume share.
	quality := func() float64 {
		worst := math.Inf(1)
		var x, y [4]float64
		for e := 0; e < s.Mesh.NEl; e++ {
			for k := 0; k < 4; k++ {
				x[k] = s.X[s.Mesh.ElNd[e][k]]
				y[k] = s.Y[s.Mesh.ElNd[e][k]]
			}
			var sv [4]float64
			subVolsInto(&x, &y, &sv)
			a := x[0]*0 + sv[0] + sv[1] + sv[2] + sv[3]
			for k := 0; k < 4; k++ {
				if q := sv[k] / a * 4; q < worst {
					worst = q
				}
			}
		}
		return worst
	}
	before := quality()
	opt := Options{Mode: Smoothed, SmoothWeight: 0.8}
	r := NewRemapper(opt, s)
	if err := r.Apply(s, nil, nil); err != nil {
		t.Fatal(err)
	}
	after := quality()
	if after <= before {
		t.Fatalf("smoothing did not improve mesh quality: %v -> %v", before, after)
	}
}

func TestRemapErrorOnCatastrophicTarget(t *testing.T) {
	// A remap that cannot succeed must fail loudly, not silently produce
	// garbage — and, for the two guards judged before the first write,
	// leave the state bitwise as it found it, name the lowest failing
	// index at every thread count (the serial reference's).
	builds := map[string]func() *hydro.State{
		// The current mesh dragged far from its target: fluxes empty
		// whole corners.
		"corner": func() *hydro.State {
			s := testState(t, 4, 4, func(cx, cy float64) float64 { return 1 }, func(cx, cy float64) float64 { return 1 })
			for n := 0; n < s.Mesh.NNd; n++ {
				if s.Mesh.BCs[n] == mesh.BCNone {
					s.X[n] += 0.9
				}
			}
			return s
		},
		// A target with two interior nodes exchanged, so elements around
		// them invert, under corner masses inflated until no flux can
		// empty one: only the volume guard can fire.
		"volume": func() *hydro.State {
			s := testState(t, 6, 6, func(cx, cy float64) float64 { return 1 + cx }, func(cx, cy float64) float64 { return 2 - cy })
			displaceInterior(s, 0.02)
			m := s.Mesh
			a, b := m.ElNd[14][0], m.ElNd[14][2]
			m.X[a], m.X[b] = m.X[b], m.X[a]
			m.Y[a], m.Y[b] = m.Y[b], m.Y[a]
			for i := range s.CMass {
				s.CMass[i] *= 1e6
			}
			return s
		},
	}
	for name, build := range builds {
		sRef := build()
		var want *ErrRemap
		if err := newRefRemap(Options{Mode: Eulerian}, sRef).apply(sRef, nil); !errors.As(err, &want) {
			t.Fatalf("%s: reference remap returned %v, want an ErrRemap", name, err)
		}
		if (name == "volume") != (want.Corner == -1) || want.Element < 0 {
			t.Fatalf("%s: reference tripped the wrong guard: %+v", name, want)
		}
		for _, threads := range []int{1, 4} {
			s := build()
			if threads > 1 {
				s.Pool = par.New(threads)
				t.Cleanup(s.Pool.Close)
			}
			before := build()
			var got *ErrRemap
			if err := NewRemapper(Options{Mode: Eulerian}, s).Apply(s, nil, nil); !errors.As(err, &got) {
				t.Fatalf("%s threads=%d: remap returned %v, want an ErrRemap", name, threads, err)
			}
			if *got != *want {
				t.Errorf("%s threads=%d: failure %+v, want the lowest index %+v", name, threads, *got, *want)
			}
			for _, f := range []struct {
				name      string
				got, want []float64
			}{
				{"X", s.X, before.X}, {"Y", s.Y, before.Y}, {"U", s.U, before.U}, {"V", s.V, before.V},
				{"CMass", s.CMass, before.CMass}, {"Mass", s.Mass, before.Mass}, {"Ein", s.Ein, before.Ein},
				{"Rho", s.Rho, before.Rho}, {"Vol", s.Vol, before.Vol}, {"NdMass", s.NdMass, before.NdMass},
			} {
				sameBits(t, fmt.Sprintf("%s threads=%d: %s after the error", name, threads, f.name), f.got, f.want)
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if Eulerian.String() != "eulerian" || Smoothed.String() != "smoothed" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode name empty")
	}
}

// subVolsInto mirrors geom.SubVolumes locally to avoid an import cycle
// in tests (ale already imports geom; this is a convenience copy used
// only by the quality metric).
func subVolsInto(x, y *[4]float64, sv *[4]float64) {
	cx := 0.25 * (x[0] + x[1] + x[2] + x[3])
	cy := 0.25 * (y[0] + y[1] + y[2] + y[3])
	var mx, my [4]float64
	for k := 0; k < 4; k++ {
		kp := (k + 1) & 3
		mx[k] = 0.5 * (x[k] + x[kp])
		my[k] = 0.5 * (y[k] + y[kp])
	}
	for k := 0; k < 4; k++ {
		km := (k + 3) & 3
		qx := [4]float64{x[k], mx[k], cx, mx[km]}
		qy := [4]float64{y[k], my[k], cy, my[km]}
		sv[k] = 0.5 * ((qx[2]-qx[0])*(qy[3]-qy[1]) - (qx[3]-qx[1])*(qy[2]-qy[0]))
	}
}
