package hydro

import (
	"math"

	"bookleaf/internal/geom"
)

// Fused element passes (Options.Fuse, the default): the predictor and
// corrector each stream the element arrays twice instead of six times.
//
// The fusion follows the Lagrange-flux observation (De Vuyst et al.)
// that Lagrange-remap kernels are memory-bound because consecutive
// passes re-gather the same nodal and element arrays: in the unfused
// chain, getq and getforce each gather X/Y/U/V through ElNd, and
// getgeom/getrho/getein/getpc re-read ElNd, Vol, Rho, Mass and the
// corner forces that a neighbouring kernel just produced. Both fusions
// are valid per element because no kernel in either pair reads another
// element's output: getforce consumes only its own element's Q (just
// computed), and vol→rho→ein→pc is a straight-line dataflow on
// element-local values once the nodes have moved. Each fused body
// calls the per-element functions of its unfused kernels back to back
// (elemQ then elemForce; geom.QuadArea, cornerWork and pressureCsq) — same
// gathered operands, same operation order — which is what makes the
// fused path bitwise-identical to the unfused one at every thread
// count (pinned by the fuse cells of the root equivalence matrix). The
// one thing only the fused step does is evaluate the viscosity limiter
// once: its corrector sweep reads what its predictor sweep stored (see
// elemQ), where the unfused kernels evaluate it in both.
//
// The sweeps dispatch over the pool's plain chunk split. Each body is
// per-element pure and walks its chunk in ascending order, so there is
// no reuse across elements for cache tiling to capture (DESIGN.md §13).

// Fused-path timer names. The fused step deliberately reports the
// merged kernels under merged names instead of attributing shares back
// to the paper's Table II names — a per-kernel split of a fused sweep
// would be fiction. The unfused ablation still reports the paper's
// breakdown.
const (
	TimerQForce    = "qforce"
	TimerLagUpdate = "lagupdate"
)

// GetQForce computes artificial viscosity and corner forces for
// elements [lo, hi) in one sweep — the fusion of GetQ and GetForce.
// uArr, vArr supply the velocity field (U0 in both the predictor and
// the corrector, where U is still bitwise-equal to its start-of-step
// copy — nothing writes U between the copy and GetAcc). It is always a
// full evaluation: it stores the limiter and never trusts a stored one.
func (s *State) GetQForce(lo, hi int, uArr, vArr []float64) {
	s.getQForce(lo, hi, uArr, vArr, false)
}

// getQForce is GetQForce with the limiter-reuse switch (see elemQ).
func (s *State) getQForce(lo, hi int, uArr, vArr []float64, reuse bool) {
	s.viscArgs(lo, uArr, vArr, reuse)
	s.Pool.For(hi-lo, s.kb.qforce)
}

// qforceBody runs getq then getforce per element (elemQ, elemForce —
// the bodies of qBody and forceBody) on one gather.
func (s *State) qforceBody(plo, phi int) {
	lo := s.ka.lo
	uArr, vArr := s.ka.u, s.ka.v
	for e := lo + plo; e < lo+phi; e++ {
		nd := &s.Mesh.ElNd[e]
		x0, x1, x2, x3, y0, y1, y2, y3 := gather8(s.X, s.Y, nd)
		u0, u1, u2, u3, v0, v1, v2, v3 := gather8(uArr, vArr, nd)
		rho, csq := s.Rho[e], s.Csq[e]
		q := s.elemQ(e, x0, x1, x2, x3, y0, y1, y2, y3, u0, u1, u2, u3, v0, v1, v2, v3, rho, math.Sqrt(csq))
		s.Q[e] = q
		s.elemForce(e, x0, x1, x2, x3, y0, y1, y2, y3, u0, u1, u2, u3, v0, v1, v2, v3, rho, csq, q)
	}
}

// FusedUpdate advances geometry, density, internal energy and the EOS
// of elements [lo, hi) in one sweep — the fusion of GetGeom, GetRho,
// GetEin and GetPC: nodes move, then each element recomputes volume,
// density, compatible energy and pressure/sound speed from values still
// in cache. The tangle scan runs after the sweep, serial and ascending,
// so the first reported offender matches the unfused schedule; the
// floor-energy total is returned only on success (the unfused path
// never reaches GetEin when GetGeom tangles, so a tangled fused step
// must not commit floors either — rollback restores the extra fields
// the fused sweep wrote past the tangle).
func (s *State) FusedUpdate(dt float64, uArr, vArr []float64, lo, hi int) (float64, error) {
	s.ka.dt = dt
	s.ka.u, s.ka.v = uArr, vArr
	s.Pool.For(s.Mesh.NNd, s.kb.move)
	s.ka.lo = lo
	total := s.floorSweep(hi-lo, s.kb.update)
	if err := s.scanTangled(lo, hi); err != nil {
		return 0, err
	}
	return total, nil
}

// updateBody is the per-element vol→rho→ein→pc chain: the per-element
// expressions of volBody, rhoBody, einBody and pcBody back to back,
// with einBody's floor accumulator.
func (s *State) updateBody(chunk, plo, phi int) {
	mats := s.Opt.Materials
	reg := s.Mesh.Region
	lo, dt := s.ka.lo, s.ka.dt
	uArr, vArr := s.ka.u, s.ka.v
	var added float64
	for e := lo + plo; e < lo+phi; e++ {
		nd := &s.Mesh.ElNd[e]
		vol := geom.QuadArea(gather8(s.X, s.Y, nd))
		s.Vol[e] = vol
		mass := s.Mass[e]
		rho := mass / vol
		s.Rho[e] = rho
		u0, u1, u2, u3, v0, v1, v2, v3 := gather8(uArr, vArr, nd)
		ein := s.Ein0[e] - dt*s.cornerWork(e, u0, u1, u2, u3, v0, v1, v2, v3)/mass
		mat := mats[reg[e]]
		if ein < 0 && mat.EnergyDependent() {
			added += -ein * mass
			ein = 0
		}
		s.Ein[e] = ein
		s.P[e], s.Csq[e] = pressureCsq(mat, rho, ein)
	}
	s.ka.floors[floorStride*chunk] = added
}
