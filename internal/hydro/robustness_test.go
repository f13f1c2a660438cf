package hydro

import (
	"math"
	"testing"

	"bookleaf/internal/eos"
	"bookleaf/internal/mesh"
)

func TestFrozenVelBoundaryHoldsVelocity(t *testing.T) {
	m, err := mesh.Rect(mesh.RectSpec{
		NX: 6, NY: 6, X0: 0, X1: 1, Y0: 0, Y1: 1,
		Walls: mesh.WallSpec{Left: mesh.FixU, Bottom: mesh.FixV,
			Right: mesh.FrozenVel, Top: mesh.FrozenVel},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := uniformState(t, m, 1, 0.5, HGSubzonal)
	// Give the frozen boundary a velocity that forces would otherwise
	// change (pressure gradient towards the boundary).
	for n := 0; n < m.NNd; n++ {
		if m.BCs[n]&mesh.FrozenVel != 0 {
			s.U[n] = -0.05
			s.V[n] = -0.03
		}
	}
	s.Ein[35] = 5 // hot cell next to the corner
	s.GetPC(0, m.NEl)
	for i := 0; i < 20; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < m.NNd; n++ {
		if m.BCs[n]&mesh.FrozenVel == 0 {
			continue
		}
		if s.U[n] != -0.05 || s.V[n] != -0.03 {
			t.Fatalf("frozen node %d drifted to (%v,%v)", n, s.U[n], s.V[n])
		}
	}
}

func TestFrozenVelWorkAccounted(t *testing.T) {
	// Frozen inflow nodes do work on the gas; the audit must close.
	m, err := mesh.Rect(mesh.RectSpec{
		NX: 10, NY: 4, X0: 0, X1: 1, Y0: 0, Y1: 0.4,
		Walls: mesh.WallSpec{Left: mesh.FixU, Right: mesh.FrozenVel,
			Bottom: mesh.FixV, Top: mesh.FixV},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := eos.NewIdealGas(1.4)
	opt := DefaultOptions(g)
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	for e := range rho {
		rho[e] = 1
		ein[e] = 0.5
	}
	s, err := NewState(m, opt, rho, ein)
	if err != nil {
		t.Fatal(err)
	}
	// Right boundary pushes inward.
	for n := 0; n < m.NNd; n++ {
		if m.BCs[n]&mesh.FrozenVel != 0 {
			s.U[n] = -0.2
		}
	}
	e0 := s.TotalEnergy()
	for i := 0; i < 100; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	balance := math.Abs(s.TotalEnergy() - e0 - s.ExternalWork - s.FloorEnergy)
	if balance > 1e-10*math.Max(1, e0) {
		t.Fatalf("frozen-wall energy audit off by %v (W=%v)", balance, s.ExternalWork)
	}
	if s.ExternalWork <= 0 {
		t.Fatalf("compressing frozen wall should inject energy, got %v", s.ExternalWork)
	}
}

func TestEnergyFloorNeverNegative(t *testing.T) {
	// A violently expanding cold corner: energy must be floored at
	// zero and the floored energy accounted.
	m := boxMesh(t, 6, 6)
	g, _ := eos.NewIdealGas(5.0 / 3.0)
	opt := DefaultOptions(g)
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	for e := range rho {
		rho[e] = 1
		ein[e] = 1e-9
	}
	ein[0] = 50 // corner blast into cold gas
	s, err := NewState(m, opt, rho, ein)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			break // tangling acceptable here; we check invariants below
		}
	}
	for e := 0; e < m.NEl; e++ {
		if s.Ein[e] < 0 {
			t.Fatalf("element %d has negative energy %v", e, s.Ein[e])
		}
		if s.P[e] < 0 {
			t.Fatalf("element %d has negative pressure %v", e, s.P[e])
		}
	}
	if s.FloorEnergy < 0 {
		t.Fatalf("floor energy negative: %v", s.FloorEnergy)
	}
}

func TestEnergyFloorZeroOnHealthyRun(t *testing.T) {
	m := boxMesh(t, 8, 8)
	s := uniformState(t, m, 1, 0.5, HGSubzonal)
	s.Ein[20] = 2
	s.GetPC(0, m.NEl)
	for i := 0; i < 50; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.FloorEnergy != 0 {
		t.Fatalf("healthy run used the energy floor: %v", s.FloorEnergy)
	}
}
