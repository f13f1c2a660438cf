package setup

import (
	"errors"
	"math"
	"testing"

	"bookleaf/internal/hydro"
	"bookleaf/internal/mesh"
	"bookleaf/internal/order"
)

func TestSodRegionsAndStates(t *testing.T) {
	p, err := Sod(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "sod" || p.TEnd != 0.25 || p.Gamma != 1.4 {
		t.Fatalf("metadata wrong: %+v", p)
	}
	left, right := 0, 0
	for e := 0; e < p.Mesh.NEl; e++ {
		switch p.Mesh.Region[e] {
		case 0:
			left++
			if p.Rho[e] != 1 {
				t.Fatalf("left density %v", p.Rho[e])
			}
			// p = (gamma-1) rho e = 1
			if math.Abs(0.4*p.Rho[e]*p.Ein[e]-1) > 1e-12 {
				t.Fatalf("left pressure wrong: e=%v", p.Ein[e])
			}
		case 1:
			right++
			if p.Rho[e] != 0.125 {
				t.Fatalf("right density %v", p.Rho[e])
			}
			if math.Abs(0.4*p.Rho[e]*p.Ein[e]-0.1) > 1e-12 {
				t.Fatalf("right pressure wrong: e=%v", p.Ein[e])
			}
		}
	}
	if left != right || left == 0 {
		t.Fatalf("region split %d/%d", left, right)
	}
}

func TestNohVelocityField(t *testing.T) {
	p, err := Noh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewState()
	if err != nil {
		t.Fatal(err)
	}
	// A free interior node moves radially inward at unit speed.
	for n := 0; n < s.Mesh.NNd; n++ {
		if s.Mesh.BCs[n] != mesh.BCNone {
			continue
		}
		sp := math.Hypot(s.U[n], s.V[n])
		if math.Abs(sp-1) > 1e-12 {
			t.Fatalf("node %d speed %v, want 1", n, sp)
		}
		if s.U[n]*s.X[n]+s.V[n]*s.Y[n] >= 0 {
			t.Fatalf("node %d not inward", n)
		}
	}
	// Axis nodes respect the reflective walls.
	for n := 0; n < s.Mesh.NNd; n++ {
		if s.Mesh.BCs[n]&mesh.FixU != 0 && s.U[n] != 0 {
			t.Fatalf("x-axis node %d has u=%v", n, s.U[n])
		}
	}
}

func TestSedovEnergyBudget(t *testing.T) {
	p, err := sedov(40, 40, 0.311)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewState()
	if err != nil {
		t.Fatal(err)
	}
	// Total internal energy = quadrant share + ambient floor.
	ie := s.InternalEnergy()
	if math.Abs(ie-0.311/4) > 1e-3 {
		t.Fatalf("deposited energy %v, want ~%v", ie, 0.311/4)
	}
	// Deposit confined near the origin.
	var x, y [4]float64
	for e := 0; e < p.Mesh.NEl; e++ {
		if p.Ein[e] > 1 {
			p.Mesh.GatherCoords(e, &x, &y)
			r := math.Hypot(0.25*(x[0]+x[1]+x[2]+x[3]), 0.25*(y[0]+y[1]+y[2]+y[3]))
			if r > 0.1 {
				t.Fatalf("hot cell at r=%v", r)
			}
		}
	}
}

func TestSedovRejectsBadEnergy(t *testing.T) {
	if _, err := sedov(10, 10, 0); err == nil {
		t.Fatal("zero energy accepted")
	}
}

func TestSaltzmannMeshAndPiston(t *testing.T) {
	p, err := saltzmann(50, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.PistonU != 1 {
		t.Fatalf("piston velocity %v", p.PistonU)
	}
	// Mesh is distorted but valid.
	if err := p.Mesh.Check(); err != nil {
		t.Fatal(err)
	}
	distorted := false
	for n := 0; n < p.Mesh.NNd; n++ {
		// Interior columns shifted off the uniform grid.
		x := p.Mesh.X[n]
		col := math.Round(x * 50)
		if math.Abs(x-col/50) > 1e-6 {
			distorted = true
		}
	}
	if !distorted {
		t.Fatal("Saltzmann mesh not distorted")
	}
	// Left wall flagged as piston; applying velocities sets it moving.
	s, err := p.NewState()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for n := 0; n < p.Mesh.NNd; n++ {
		if p.Mesh.BCs[n]&mesh.Piston != 0 {
			found = true
			if s.U[n] != 1 {
				t.Fatalf("piston node %d u=%v", n, s.U[n])
			}
		}
	}
	if !found {
		t.Fatal("no piston nodes flagged")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"sod", "noh", "sedov", "saltzmann", "waterair"} {
		p, err := ByName(name, 10, 10, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("name %q != %q", p.Name, name)
		}
	}
	if _, err := ByName("bogus", 10, 10, 0); err == nil {
		t.Fatal("bogus problem accepted")
	}
}

func TestProblemsStartConsistent(t *testing.T) {
	// Every problem must produce a valid state whose initial energy is
	// finite and positive density everywhere, and InitialAudit must
	// report that state's totals bitwise without building it — on the
	// generated mesh and on a renumbered one.
	for _, name := range []string{"sod", "noh", "nohdisc", "sedov", "saltzmann", "waterair"} {
		for _, kind := range []order.Kind{order.None, order.Hilbert} {
			p, err := ByName(name, 12, 6, 0)
			if err != nil {
				t.Fatal(err)
			}
			if p.Mesh, err = order.Reorder(p.Mesh, kind); err != nil {
				t.Fatal(err)
			}
			s, err := p.NewState()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if e := s.TotalEnergy(); math.IsNaN(e) || e < 0 {
				t.Fatalf("%s: initial energy %v", name, e)
			}
			if m := s.TotalMass(); m <= 0 {
				t.Fatalf("%s: initial mass %v", name, m)
			}
			e0, mass0, err := p.InitialAudit()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if e0 != s.TotalEnergy() || mass0 != s.TotalMass() {
				t.Fatalf("%s/%s: InitialAudit = (%v, %v), the state reports (%v, %v)",
					name, kind, e0, mass0, s.TotalEnergy(), s.TotalMass())
			}
		}
	}
}

// TestInitialAuditReportsTangledMesh: the parallel driver returns the
// audit's error instead of running on with E0 = Mass0 = 0.
func TestInitialAuditReportsTangledMesh(t *testing.T) {
	p, err := Sod(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	nd := p.Mesh.ElNd[3]
	p.Mesh.X[nd[0]], p.Mesh.X[nd[1]] = p.Mesh.X[nd[1]], p.Mesh.X[nd[0]]
	var tangled *hydro.ErrTangled
	if _, _, err := p.InitialAudit(); !errors.As(err, &tangled) {
		t.Fatalf("InitialAudit on a tangled mesh: %v, want ErrTangled", err)
	}
}

func TestWaterAirSetup(t *testing.T) {
	p, err := waterAir(50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Opt.Materials) != 2 {
		t.Fatalf("want 2 materials, got %d", len(p.Opt.Materials))
	}
	if p.Opt.Materials[0].Name() != "tait" || p.Opt.Materials[1].Name() != "ideal gas" {
		t.Fatalf("materials = %s, %s", p.Opt.Materials[0].Name(), p.Opt.Materials[1].Name())
	}
	if p.Opt.Materials[0].EnergyDependent() || !p.Opt.Materials[1].EnergyDependent() {
		t.Fatal("energy dependence flags wrong")
	}
	water, airN := 0, 0
	for e := 0; e < p.Mesh.NEl; e++ {
		if p.Mesh.Region[e] == 0 {
			water++
			if p.Rho[e] != 1.02 {
				t.Fatalf("water density %v", p.Rho[e])
			}
		} else {
			airN++
		}
	}
	if water == 0 || airN == 0 {
		t.Fatalf("region split %d/%d", water, airN)
	}
}
