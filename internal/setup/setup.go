// Package setup builds BookLeaf's four standard shock-hydrodynamics
// test problems — Sod's shock tube, the Noh problem, the Sedov problem
// and Saltzmann's piston — as ready-to-run meshes, initial fields,
// boundary conditions and material tables, mirroring the input decks
// shipped with the reference implementation.
package setup

import (
	"fmt"
	"math"

	"bookleaf/internal/eos"
	"bookleaf/internal/hydro"
	"bookleaf/internal/mesh"
)

// Problem is a fully-specified test case.
type Problem struct {
	Name string
	Mesh *mesh.Mesh
	Opt  hydro.Options
	// Initial per-element fields.
	Rho, Ein []float64
	// InitVel gives the initial nodal velocity field (nil = at rest).
	InitVel func(x, y float64) (u, v float64)
	// Piston velocity for Piston-flagged nodes.
	PistonU, PistonV float64
	// TEnd is the standard end time.
	TEnd float64
	// Gamma of the (single-gamma) problem, for reference solutions.
	Gamma float64
	// SedovEnergy is the total blast energy for the Sedov problem
	// (zero otherwise).
	SedovEnergy float64
}

// NewState instantiates a hydro state for the problem on its mesh.
func (p *Problem) NewState() (*hydro.State, error) {
	return p.NewStateOn(p.Mesh)
}

// NewStateOn instantiates the problem's t = 0 state on m: the problem
// mesh itself, or one rank's sub-mesh of it.
func (p *Problem) NewStateOn(m *mesh.Mesh) (*hydro.State, error) {
	rho, ein := p.fields(m)
	s, err := hydro.NewState(m, p.Opt, rho, ein)
	if err != nil {
		return nil, err
	}
	p.applyVelocities(s)
	return s, nil
}

// fields returns the initial density and energy in m's element order.
// Rho and Ein are kept in canonical generation order; a mesh that was
// renumbered for locality or cut out by the partitioner (GlobalEl
// non-nil) restricts them through the ids it carries.
func (p *Problem) fields(m *mesh.Mesh) (rho, ein []float64) {
	if m.GlobalEl == nil {
		return p.Rho, p.Ein
	}
	rho = make([]float64, m.NEl)
	ein = make([]float64, m.NEl)
	for i, ge := range m.GlobalEl {
		rho[i] = p.Rho[ge]
		ein[i] = p.Ein[ge]
	}
	return rho, ein
}

// InitialAudit returns the problem's total energy and mass at t = 0 on
// its mesh — bitwise the TotalEnergy and TotalMass of NewState's state —
// without building that state.
func (p *Problem) InitialAudit() (e0, mass0 float64, err error) {
	m := p.Mesh
	u := make([]float64, m.NNd)
	v := make([]float64, m.NNd)
	for n := range u {
		u[n], v[n] = p.velocityAt(m.X[n], m.Y[n], m.BCs[n])
	}
	rho, ein := p.fields(m)
	return hydro.InitialTotals(m, rho, ein, u, v)
}

// applyVelocities sets the initial nodal velocities and piston state of
// a freshly built state.
func (p *Problem) applyVelocities(s *hydro.State) {
	for n := range s.U {
		s.U[n], s.V[n] = p.velocityAt(s.X[n], s.Y[n], s.Mesh.BCs[n])
	}
	s.PistonU, s.PistonV = p.PistonU, p.PistonV
}

// velocityAt is the initial velocity of a node at (x, y) with boundary
// flags bc: the problem's field with fixed-wall components zeroed,
// overridden by the piston velocity on piston nodes.
func (p *Problem) velocityAt(x, y float64, bc mesh.BC) (u, v float64) {
	if p.InitVel != nil {
		u, v = p.InitVel(x, y)
		if bc&mesh.FixU != 0 {
			u = 0
		}
		if bc&mesh.FixV != 0 {
			v = 0
		}
	}
	if (p.PistonU != 0 || p.PistonV != 0) && bc&mesh.Piston != 0 {
		u, v = p.PistonU, p.PistonV
	}
	return u, v
}

// centroids fills per-element centroid coordinates.
func centroids(m *mesh.Mesh) (cx, cy []float64) {
	cx = make([]float64, m.NEl)
	cy = make([]float64, m.NEl)
	var x, y [4]float64
	for e := 0; e < m.NEl; e++ {
		m.GatherCoords(e, &x, &y)
		cx[e] = 0.25 * (x[0] + x[1] + x[2] + x[3])
		cy[e] = 0.25 * (y[0] + y[1] + y[2] + y[3])
	}
	return cx, cy
}

// Sod builds Sod's shock tube on an nx×ny strip [0,1]×[0,0.1]: left
// half rho=1, p=1; right half rho=0.125, p=0.1; gamma=1.4; run to
// t=0.25. "Sod's shock tube tests a code's ability to model the
// fundamentals of shock hydrodynamics."
func Sod(nx, ny int) (*Problem, error) {
	const gamma = 1.4
	g, err := eos.NewIdealGas(gamma)
	if err != nil {
		return nil, err
	}
	m, err := mesh.Rect(mesh.RectSpec{
		NX: nx, NY: ny, X0: 0, X1: 1, Y0: 0, Y1: 0.1,
		RegionOf: func(cx, cy float64) int {
			if cx < 0.5 {
				return 0
			}
			return 1
		},
		Walls: mesh.DefaultWalls(),
	})
	if err != nil {
		return nil, err
	}
	opt := hydro.DefaultOptions(g, g)
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	for e := 0; e < m.NEl; e++ {
		if m.Region[e] == 0 {
			rho[e] = 1
			ein[e] = 1.0 / ((gamma - 1) * 1.0) // p=1
		} else {
			rho[e] = 0.125
			ein[e] = 0.1 / ((gamma - 1) * 0.125) // p=0.1
		}
	}
	return &Problem{
		Name: "sod", Mesh: m, Opt: opt, Rho: rho, Ein: ein,
		TEnd: 0.25, Gamma: gamma,
	}, nil
}

// Noh builds the cylindrical Noh implosion on a [0,1]² quadrant:
// gamma=5/3, rho=1, cold gas with a unit radially-inward velocity.
// Reflective walls on the axes; the outer boundary is free (the shock
// stays well inside by t=0.6). "Noh's problem is used to highlight the
// wall-heating issue commonly found with artificial viscosity methods."
func Noh(nx, ny int) (*Problem, error) {
	const gamma = 5.0 / 3.0
	g, err := eos.NewIdealGas(gamma)
	if err != nil {
		return nil, err
	}
	// The outer boundary carries the far-field inflow condition: the
	// exact pre-shock solution has constant velocity along node paths,
	// so outer nodes keep their initial -r̂ velocity (without this the
	// zero-pressure cold gas amplifies corner-node noise into sliver
	// cells at finer resolutions).
	m, err := mesh.Rect(mesh.RectSpec{
		NX: nx, NY: ny, X0: 0, X1: 1, Y0: 0, Y1: 1,
		Walls: mesh.WallSpec{
			Left: mesh.FixU, Bottom: mesh.FixV,
			Right: mesh.FrozenVel, Top: mesh.FrozenVel,
		},
	})
	if err != nil {
		return nil, err
	}
	opt := hydro.DefaultOptions(g)
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	for e := range rho {
		rho[e] = 1
		ein[e] = 1e-9
	}
	return &Problem{
		Name: "noh", Mesh: m, Opt: opt, Rho: rho, Ein: ein,
		InitVel: func(x, y float64) (float64, float64) {
			r := math.Hypot(x, y)
			if r == 0 {
				return 0, 0
			}
			return -x / r, -y / r
		},
		TEnd: 0.6, Gamma: gamma,
	}, nil
}

// nohDisc builds the Noh problem on a quarter-disc mesh whose outer
// boundary lies exactly on the physical r=1 circle — the mesh-geometry
// ablation of Noh: compare against the Cartesian-quadrant version to
// see how much of the error is mesh alignment (the same distinction the
// paper draws by running Sedov on a Cartesian mesh "to test the code's
// capability to model non-mesh-aligned shocks").
func nohDisc(n int) (*Problem, error) {
	const gamma = 5.0 / 3.0
	g, err := eos.NewIdealGas(gamma)
	if err != nil {
		return nil, err
	}
	m, err := mesh.QuarterDisc(mesh.QuarterDiscSpec{
		N: n, R: 1,
		AxisX: mesh.FixU, AxisY: mesh.FixV, Arc: mesh.FrozenVel,
	})
	if err != nil {
		return nil, err
	}
	opt := hydro.DefaultOptions(g)
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	for e := range rho {
		rho[e] = 1
		ein[e] = 1e-9
	}
	return &Problem{
		Name: "nohdisc", Mesh: m, Opt: opt, Rho: rho, Ein: ein,
		InitVel: func(x, y float64) (float64, float64) {
			r := math.Hypot(x, y)
			if r == 0 {
				return 0, 0
			}
			return -x / r, -y / r
		},
		TEnd: 0.6, Gamma: gamma,
	}, nil
}

// sedov builds the Sedov blast on a [0,1.2]² quadrant Cartesian mesh
// (the paper: "calculated on a Cartesian mesh to test the code's
// capability to model non-mesh-aligned shocks"): gamma=1.4, ambient
// rho=1, and blast energy eTotal deposited in the corner cell (a
// quarter of the full-plane energy, by symmetry).
func sedov(nx, ny int, eTotal float64) (*Problem, error) {
	const gamma = 1.4
	if eTotal <= 0 {
		return nil, fmt.Errorf("setup: sedov energy %v must be positive", eTotal)
	}
	g, err := eos.NewIdealGas(gamma)
	if err != nil {
		return nil, err
	}
	m, err := mesh.Rect(mesh.RectSpec{
		NX: nx, NY: ny, X0: 0, X1: 1.2, Y0: 0, Y1: 1.2,
		Walls: mesh.DefaultWalls(),
	})
	if err != nil {
		return nil, err
	}
	opt := hydro.DefaultOptions(g)
	// The Sedov deck selects the Hancock filter: the strong point
	// blast on a Cartesian mesh excites diagonal (hourglass-adjacent)
	// distortion that the simplified sub-zonal response does not
	// suppress; the viscous filter holds the stencil together and
	// reproduces the self-similar front (peak ~6 at the exact radius).
	opt.Hourglass = hydro.HGFilter
	opt.HGKappa = 0.25
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	for e := range rho {
		rho[e] = 1
		ein[e] = 1e-9
	}
	// Deposit a quarter of the blast (quadrant symmetry) as a uniform
	// energy density over a small disc of radius ~2.2 cells around the
	// origin. A strict single-cell deposit on a quadrilateral mesh
	// drives the classic diagonal-cell collapse; the finite source
	// radius (still far below the measured shock radii) avoids it
	// without changing the self-similar solution.
	cx, cy := centroids(m)
	dx := 1.2 / float64(nx)
	rDep := 2.2 * dx
	var volDep float64
	for e := range cx {
		if math.Hypot(cx[e], cy[e]) < rDep {
			volDep += m.Volume(e)
		}
	}
	if volDep == 0 {
		return nil, fmt.Errorf("setup: sedov deposit region empty")
	}
	for e := range cx {
		if math.Hypot(cx[e], cy[e]) < rDep {
			ein[e] = (eTotal / 4) / (rho[e] * volDep)
		}
	}
	return &Problem{
		Name: "sedov", Mesh: m, Opt: opt, Rho: rho, Ein: ein,
		TEnd: 1.0, Gamma: gamma, SedovEnergy: eTotal,
	}, nil
}

// saltzmann builds Saltzmann's piston: a [0,1]×[0,0.1] cold gas strip
// on the classic skewed mesh, driven by a unit-velocity piston from the
// left. "Designed to exacerbate hourglass modes and therefore test a
// code's capability to suppress such modes."
func saltzmann(nx, ny int) (*Problem, error) {
	const gamma = 5.0 / 3.0
	g, err := eos.NewIdealGas(gamma)
	if err != nil {
		return nil, err
	}
	const h = 0.1
	m, err := mesh.Rect(mesh.RectSpec{
		NX: nx, NY: ny, X0: 0, X1: 1, Y0: 0, Y1: h,
		Distort: mesh.NewSaltzmannDistort(h, 0.01),
		Walls: mesh.WallSpec{
			Left: mesh.Piston, Right: mesh.FixU,
			Bottom: mesh.FixV, Top: mesh.FixV,
		},
	})
	if err != nil {
		return nil, err
	}
	opt := hydro.DefaultOptions(g)
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	for e := range rho {
		rho[e] = 1
		ein[e] = 1e-9
	}
	return &Problem{
		Name: "saltzmann", Mesh: m, Opt: opt, Rho: rho, Ein: ein,
		PistonU: 1, TEnd: 0.6, Gamma: gamma,
	}, nil
}

// waterAir builds a two-material shock tube exercising the Tait EoS:
// a slightly compressed water column (Tait, left) drives a shock into
// air (ideal gas, right). This is the multi-material configuration the
// reference code's region/material machinery exists for; it validates
// pressure continuity across a material interface with a large
// impedance mismatch.
func waterAir(nx, ny int) (*Problem, error) {
	const (
		gammaAir = 1.4
		rhoW     = 1.02 // compressed water
		taitB    = 100.0
		taitN    = 7.0
		rhoA     = 0.05
		pAir     = 0.1
	)
	water, err := eos.NewTait(1.0, taitB, taitN)
	if err != nil {
		return nil, err
	}
	air, err := eos.NewIdealGas(gammaAir)
	if err != nil {
		return nil, err
	}
	m, err := mesh.Rect(mesh.RectSpec{
		NX: nx, NY: ny, X0: 0, X1: 1, Y0: 0, Y1: 0.1,
		RegionOf: func(cx, cy float64) int {
			if cx < 0.4 {
				return 0
			}
			return 1
		},
		Walls: mesh.DefaultWalls(),
	})
	if err != nil {
		return nil, err
	}
	opt := hydro.DefaultOptions(water, air)
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	for e := 0; e < m.NEl; e++ {
		if m.Region[e] == 0 {
			rho[e] = rhoW
			ein[e] = 1e-6 // Tait pressure is energy-independent
		} else {
			rho[e] = rhoA
			ein[e] = pAir / ((gammaAir - 1) * rhoA)
		}
	}
	return &Problem{
		Name: "waterair", Mesh: m, Opt: opt, Rho: rho, Ein: ein,
		TEnd: 0.08, Gamma: gammaAir,
	}, nil
}

// ByName builds a problem by its deck name with the given resolution.
// Sedov ignores sedovE <= 0 and uses the standard 0.311 (shock radius
// ~0.75 at t=1).
func ByName(name string, nx, ny int, sedovE float64) (*Problem, error) {
	switch name {
	case "sod":
		return Sod(nx, ny)
	case "noh":
		return Noh(nx, ny)
	case "sedov":
		if sedovE <= 0 {
			sedovE = 0.311
		}
		return sedov(nx, ny, sedovE)
	case "saltzmann":
		return saltzmann(nx, ny)
	case "waterair":
		return waterAir(nx, ny)
	case "nohdisc":
		return nohDisc(nx)
	default:
		return nil, fmt.Errorf("setup: unknown problem %q (want sod, noh, sedov, saltzmann, waterair or nohdisc)", name)
	}
}
