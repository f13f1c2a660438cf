// Package hydro implements BookLeaf's Lagrangian hydrodynamics step:
// the staggered-mesh compatible finite-element discretisation of
// Euler's equations with predictor-corrector time integration,
// edge-centred artificial viscosity, and hourglass control. Kernel
// decomposition follows the paper's Algorithm 1 — getdt, getq,
// getforce, getacc, getgeom, getrho, getein, getpc — so per-kernel
// timings map one-to-one onto the paper's Table II.
package hydro

import (
	"fmt"
	"math"

	"bookleaf/internal/geom"
	"bookleaf/internal/mesh"
	"bookleaf/internal/par"
)

// ErrTangled reports a non-positive element volume (mesh tangling).
type ErrTangled struct {
	Element int
	Volume  float64
}

func (e *ErrTangled) Error() string {
	return fmt.Sprintf("hydro: element %d tangled (volume %v)", e.Element, e.Volume)
}

// ErrDtCollapse reports a stable timestep below Options.DtMin.
type ErrDtCollapse struct {
	Dt      float64
	Element int
}

func (e *ErrDtCollapse) Error() string {
	return fmt.Sprintf("hydro: timestep %v collapsed below minimum (element %d)", e.Dt, e.Element)
}

// cornerStride is the distance in every corner array between element
// e's record and element e+1's: corner k of element e lives at
// cornerStride*e+k. Each pair of corner arrays shares one interleaved
// backing — FX and FY are overlapping views offset by 4, so element e's
// record FX[0..3]|FY[0..3] is one contiguous 64-byte cache line, and
// the same for CMass|psi — so the force writes, the acceleration gather
// and the energy dot products touch one line where the paper's
// parallel arrays touch two (DESIGN.md §15).
const cornerStride = 8

// State holds the evolving hydrodynamic state on a (possibly local,
// ghost-bearing) mesh. Element arrays have length NEl, node arrays
// NNd, each a row of the element or node slab (fieldTable); the corner
// arrays (FX/FY, CMass/psi) are indexed cornerStride*e+k.
type State struct {
	Mesh *mesh.Mesh
	Opt  Options
	Pool *par.Pool

	// Node coordinates (evolving; Mesh.X/Y keep the generated initial
	// coordinates, which the Eulerian remap uses as its target).
	X, Y []float64
	// Node velocity.
	U, V []float64
	// NdMass is the nodal mass (sum of adjacent corner masses).
	NdMass []float64

	// Element state.
	Rho, Ein, P, Q, Csq, Vol []float64
	// Mass is the element mass; CMass the corner (sub-zonal) masses.
	// After NewState only the remap writes the three masses.
	Mass, CMass []float64

	// Corner forces (per corner x/y), rebuilt by GetForce.
	FX, FY []float64
	// Nodal force accumulators, scratch for the Options.ScatterAcc
	// ablation's acceleration scatter, which sizes them on first use.
	fxnd, fynd []float64

	// Step scratch: start-of-step state saved by Step.
	X0, Y0, U0, V0 []float64
	UBar, VBar     []float64
	Ein0           []float64

	// el and nd back every element and node row of fieldTable.
	el, nd slab

	// PistonU, PistonV is the prescribed velocity of Piston-flagged
	// nodes (Saltzmann).
	PistonU, PistonV float64

	// Clock holds the simulation clock and the audit accumulators.
	Clock
	// DtCause records which condition controlled the last timestep
	// (set by GetDt; DtCauseInitial on the first step).
	DtCause DtCause

	// ka and kb are the kernel scratch arena and the pre-bound loop
	// bodies (see kernels.go); together they make the steady-state step
	// allocation-free.
	ka kernelArgs
	kb kernelBodies

	// facing[4*e+k] is the side index of neighbour ElEl[e][k] that
	// borders e, or -1 when there is no symmetric entry (no neighbour,
	// or a ghost-fringe element whose own adjacency was trimmed by the
	// partitioner). Mesh topology is static for the life of a State, so
	// this replaces the per-edge linear search the viscosity limiter
	// used to run (sideFacing) with one precomputed byte.
	facing []int8

	// psi[cornerStride*e+k] is the viscosity limiter of edge k of owned
	// element e as the last full evaluation left it, or noPsi where that
	// sweep found the edge not compressive. The limiter is a function of
	// the frozen start-of-step velocities alone, so a step's corrector
	// sweep reads what its predictor sweep stored (see elemQ). Step
	// scratch: never saved, checkpointed or migrated. It is the second
	// half of the CMass record, a cache line the sub-zonal force loads
	// anyway.
	psi []float64
}

// Clock is the scalar part of what moves — the simulation clock and the
// audit accumulators — which a memento and a dump carry whole beside the
// field table's rows.
type Clock struct {
	// Time and DtPrev track the simulation clock across steps.
	Time, DtPrev float64
	// StepCount is the number of completed Lagrangian steps.
	StepCount int
	// ExternalWork accumulates work done on the gas through
	// prescribed-velocity (piston) nodes, so total-energy audits close.
	ExternalWork float64
	// FloorEnergy accumulates internal energy added by GetEin's
	// negative-energy floor (zero on well-resolved problems);
	// conservation audits subtract it.
	FloorEnergy float64
}

// NewState allocates a State over m with initial per-element density
// and specific internal energy, and computes masses and the initial
// EoS evaluation. rho and ein must have length m.NEl.
func NewState(m *mesh.Mesh, opt Options, rho, ein []float64) (*State, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if m.NEl > math.MaxInt32/cornerStride {
		// The node gathers derive corner-array offsets cornerStride·e+k
		// in int32 (cornerSlot).
		return nil, fmt.Errorf("hydro: %d elements exceed the %d that 32-bit corner slots address", m.NEl, math.MaxInt32/cornerStride)
	}
	if len(rho) != m.NEl || len(ein) != m.NEl {
		return nil, fmt.Errorf("hydro: initial fields sized %d/%d, mesh has %d elements", len(rho), len(ein), m.NEl)
	}
	for e := 0; e < m.NEl; e++ {
		if m.Region[e] < 0 || int(m.Region[e]) >= len(opt.Materials) {
			return nil, fmt.Errorf("hydro: element %d region %d has no material (have %d)", e, m.Region[e], len(opt.Materials))
		}
		if rho[e] <= 0 {
			return nil, fmt.Errorf("hydro: element %d initial density %v not positive", e, rho[e])
		}
	}
	nel, nnd := m.NEl, m.NNd
	s := &State{
		Mesh: m,
		Opt:  opt,
		Pool: par.Serial,

		el: newSlab(element, nel),
		nd: newSlab(node, nnd),

		Clock: Clock{DtPrev: opt.DtInitial},
	}
	// Element and node rows are views of the two slabs, in table order;
	// the corner arrays are overlapping views (offset 4) of interleaved
	// backings, so FX[8e..8e+3]|FY[8e..8e+3] is one contiguous record
	// and CMass|psi pair up the same way. The corner views alias, which
	// is the point — and is harmless, since no kernel writes one member
	// of a pair through the other's slots.
	const cs = cornerStride
	fxy, aux := aligned(cs*nel), aligned(cs*nel)
	var slot [corner + 1]int
	for _, f := range fieldTable {
		switch f.ent {
		case element:
			*f.field(s) = s.el.row(slot[element])
		case node:
			*f.field(s) = s.nd.row(slot[node])
		}
		slot[f.ent]++
	}
	s.FX, s.FY = fxy, fxy
	s.CMass, s.psi = aux, aux
	if nel > 0 {
		s.FY = fxy[4:]
		s.psi = aux[4:]
	}
	copy(s.X, m.X)
	copy(s.Y, m.Y)
	copy(s.Rho, rho)
	copy(s.Ein, ein)

	// Volumes, masses, sub-zonal corner masses.
	var x, y [4]float64
	var sv [4]float64
	for e := 0; e < nel; e++ {
		m.GatherCoords(e, &x, &y) // s.X, s.Y are still the mesh's
		vol := geom.Area(&x, &y)
		if vol <= 0 {
			return nil, &ErrTangled{Element: e, Volume: vol}
		}
		s.Vol[e] = vol
		s.Mass[e] = rho[e] * vol
		geom.SubVolumes(&x, &y, &sv)
		for k := 0; k < 4; k++ {
			s.CMass[cs*e+k] = rho[e] * sv[k]
		}
	}
	// Nodal masses from corner masses over all local elements (ghost
	// layers make these sums complete for owned nodes).
	for e := 0; e < nel; e++ {
		for k := 0; k < 4; k++ {
			s.NdMass[m.ElNd[e][k]] += s.CMass[cs*e+k]
		}
	}
	// Facing-side table: for each adjacency entry, the neighbour's side
	// that points back. Owned elements must have symmetric adjacency (a
	// partitioning invariant the viscosity kernel still asserts); ghost
	// elements may legitimately lack the back-pointer and get -1.
	s.facing = make([]int8, 4*nel)
	for e := 0; e < nel; e++ {
		for k := 0; k < 4; k++ {
			s.facing[4*e+k] = -1
			nb := m.ElEl[e][k]
			if nb < 0 {
				continue
			}
			for kk := 0; kk < 4; kk++ {
				if int(m.ElEl[nb][kk]) == e {
					s.facing[4*e+k] = int8(kk)
					break
				}
			}
		}
	}
	s.bindKernels()
	s.GetPC(0, nel)
	return s, nil
}

// CornerStride returns the distance in the corner arrays (FX, FY,
// CMass) between consecutive elements' records: corner k of element e
// lives at CornerStride()*e+k.
func (s *State) CornerStride() int { return cornerStride }

// cornerSlot is the slot cornerStride*e+k in the corner arrays of the
// Mesh.NdCorner id c = 4e+k, derived where a node gather loads c.
func cornerSlot(c int32) int32 { return (c>>2)*cornerStride + c&3 }

// ForceHalo returns the corner-force array a ghost-element halo
// exchange must transfer — the interleaved FX|FY backing, which the FX
// view spans in full — with its per-element record width.
func (s *State) ForceHalo() (fields [][]float64, width int) {
	return [][]float64{s.FX}, cornerStride
}

// gather8 loads a pair of nodal arrays — coordinates or velocities — at
// an element's four nodes.
func gather8(a, b []float64, nd *[4]int32) (a0, a1, a2, a3, b0, b1, b2, b3 float64) {
	return a[nd[0]], a[nd[1]], a[nd[2]], a[nd[3]], b[nd[0]], b[nd[1]], b[nd[2]], b[nd[3]]
}

// InitialTotals returns the TotalEnergy and TotalMass that a state built
// by NewState(m, opt, rho, ein) and given nodal velocities (u, v)
// reports at t = 0, to the last bit — the same products summed in the
// same order — without building the state. The parallel driver anchors
// its conservation audit on the global mesh with it, where no global
// state otherwise exists.
func InitialTotals(m *mesh.Mesh, rho, ein, u, v []float64) (energy, mass float64, err error) {
	if len(rho) != m.NEl || len(ein) != m.NEl || len(u) != m.NNd || len(v) != m.NNd {
		return 0, 0, fmt.Errorf("hydro: initial fields sized %d/%d/%d/%d, mesh has %d elements, %d nodes",
			len(rho), len(ein), len(u), len(v), m.NEl, m.NNd)
	}
	// The float64 conversions stand where NewState stores to Mass and
	// CMass: they round there, so no product may fuse into a later sum.
	ndMass := make([]float64, m.NNd)
	var x, y, sv [4]float64
	var ie float64
	for e := 0; e < m.NEl; e++ {
		m.GatherCoords(e, &x, &y)
		vol := geom.Area(&x, &y)
		if vol <= 0 {
			return 0, 0, &ErrTangled{Element: e, Volume: vol}
		}
		geom.SubVolumes(&x, &y, &sv)
		for k := 0; k < 4; k++ {
			ndMass[m.ElNd[e][k]] += float64(rho[e] * sv[k])
		}
		if e < m.NOwnEl {
			elMass := float64(rho[e] * vol)
			mass += elMass
			ie += elMass * ein[e]
		}
	}
	var ke float64
	for n := 0; n < m.NOwnNd; n++ {
		ke += 0.5 * ndMass[n] * (u[n]*u[n] + v[n]*v[n])
	}
	return ie + ke, mass, nil
}

// TotalMass returns the mass of owned elements.
func (s *State) TotalMass() float64 {
	var m float64
	for e := 0; e < s.Mesh.NOwnEl; e++ {
		m += s.Mass[e]
	}
	return m
}

// InternalEnergy returns the total internal energy of owned elements.
func (s *State) InternalEnergy() float64 {
	var ie float64
	for e := 0; e < s.Mesh.NOwnEl; e++ {
		ie += s.Mass[e] * s.Ein[e]
	}
	return ie
}

// KineticEnergy returns the total kinetic energy of owned nodes.
func (s *State) KineticEnergy() float64 {
	var ke float64
	for n := 0; n < s.Mesh.NOwnNd; n++ {
		ke += 0.5 * s.NdMass[n] * (s.U[n]*s.U[n] + s.V[n]*s.V[n])
	}
	return ke
}

// TotalEnergy returns internal + kinetic energy of the owned partition.
func (s *State) TotalEnergy() float64 {
	return s.InternalEnergy() + s.KineticEnergy()
}
