package hydro

import "bookleaf/internal/geom"

// List-dispatch kernel variants for the overlapped corrector schedule:
// each runs the same per-entity update as its range-based twin, but
// over an explicit (ascending) index list — the interior or boundary
// band of a partition (mesh.Band). Because every update writes only its
// own entity, splitting a range kernel into two list passes changes
// nothing about the values produced; the bands exist purely so the
// interior pass can run while halo messages are in flight. The bodies
// are pre-bound like all other kernels, so the overlapped step stays
// zero-allocation.

// GetAccList accelerates the listed owned nodes: corner-force gather,
// nodal mass division, boundary conditions, dt advance (see GetAcc).
func (s *State) GetAccList(list []int, dt float64) {
	s.ka.list = list
	s.ka.dt = dt
	s.Pool.For(len(list), s.kb.accList)
}

func (s *State) accListBody(plo, phi int) {
	m := s.Mesh
	dt := s.ka.dt
	list := s.ka.list
	start, slots := m.NdElStart, s.ndSlots
	for i := plo; i < phi; i++ {
		n := list[i]
		var fx, fy float64
		for _, ci := range slots[start[n]:start[n+1]] {
			fx += s.FX[ci]
			fy += s.FY[ci]
		}
		s.applyAccel(n, fx, fy, dt)
	}
}

// MoveNodes advances nodes [lo, hi) to x0 + dt*u — the node-move half
// of GetGeom, split out so owned nodes can move while ghost velocities
// are still in flight.
func (s *State) MoveNodes(dt float64, uArr, vArr []float64, lo, hi int) {
	s.ka.dt = dt
	s.ka.u, s.ka.v = uArr, vArr
	s.ka.nlo = lo
	s.Pool.For(hi-lo, s.kb.move)
}

// VolList recomputes the volumes of the listed elements. Tangle
// detection is the caller's job (scanTangled over the full owned range,
// after both bands) so the first reported element matches the
// synchronous schedule.
func (s *State) VolList(list []int) {
	s.ka.list = list
	s.Pool.For(len(list), s.kb.volList)
}

func (s *State) volListBody(plo, phi int) {
	list := s.ka.list
	for i := plo; i < phi; i++ {
		e := list[i]
		s.Vol[e] = geom.QuadArea(gather8(s.X, s.Y, &s.Mesh.ElNd[e]))
	}
}

// RhoList recomputes density of the listed elements from fixed mass and
// current volume.
func (s *State) RhoList(list []int) {
	s.ka.list = list
	s.Pool.For(len(list), s.kb.rhoList)
}

func (s *State) rhoListBody(plo, phi int) {
	list := s.ka.list
	for i := plo; i < phi; i++ {
		e := list[i]
		s.Rho[e] = s.Mass[e] / s.Vol[e]
	}
}

// EinList performs the compatible internal-energy update for the listed
// elements and returns the energy added by the floor (see GetEin; the
// same chunk-order caveat applies to the returned diagnostic).
func (s *State) EinList(dt float64, uArr, vArr []float64, list []int) float64 {
	t := s.Pool.NumChunks(len(list))
	if t < 1 {
		return 0
	}
	if cap(s.ka.floors) < floorStride*t {
		s.ka.floors = make([]float64, floorStride*t)
	}
	s.ka.floors = s.ka.floors[:floorStride*t]
	s.ka.list, s.ka.dt = list, dt
	s.ka.u, s.ka.v = uArr, vArr
	s.Pool.ForChunks(len(list), s.kb.einList)
	var total float64
	for c := 0; c < t; c++ {
		total += s.ka.floors[floorStride*c]
	}
	return total
}

func (s *State) einListBody(chunk, plo, phi int) {
	m := s.Mesh
	mats := s.Opt.Materials
	dt := s.ka.dt
	list := s.ka.list
	uArr, vArr := s.ka.u, s.ka.v
	var added float64
	for i := plo; i < phi; i++ {
		e := list[i]
		u0, u1, u2, u3, v0, v1, v2, v3 := gather8(uArr, vArr, &m.ElNd[e])
		ein := s.Ein0[e] - dt*s.cornerWork(e, u0, u1, u2, u3, v0, v1, v2, v3)/s.Mass[e]
		if ein < 0 && mats[m.Region[e]].EnergyDependent() {
			added += -ein * s.Mass[e]
			ein = 0
		}
		s.Ein[e] = ein
	}
	s.ka.floors[floorStride*chunk] = added
}

// PCList evaluates the equation of state of the listed elements.
func (s *State) PCList(list []int) {
	s.ka.list = list
	s.Pool.For(len(list), s.kb.pcList)
}

func (s *State) pcListBody(plo, phi int) {
	mats := s.Opt.Materials
	reg := s.Mesh.Region
	list := s.ka.list
	for i := plo; i < phi; i++ {
		e := list[i]
		s.P[e], s.Csq[e] = pressureCsq(mats[reg[e]], s.Rho[e], s.Ein[e])
	}
}
