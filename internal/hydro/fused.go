package hydro

import (
	"math"

	"bookleaf/internal/eos"
	"bookleaf/internal/geom"
	"bookleaf/internal/timers"
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
// count (pinned by the fused-vs-unfused battery in fuse_test.go). The
// one thing only the fused step does is evaluate the viscosity limiter
// once: its corrector sweep reads what its predictor sweep stored (see
// elemQ), where the unfused kernels evaluate it in both.
//
// The sweeps dispatch over par.ForChunksTiled: each body invocation
// covers at most fuseTile elements, so the slab of every streamed
// array a tile touches stays L2-resident across the fused phases. The
// tile width is Options.FuseTile or par.TileFor(fusedBytesPerElem).

// fusedBytesPerElem is the working-set estimate the default tile width
// is derived from: the fused update streams ElNd (32 B) + 4 nodes of
// X/Y/U/V (amortised ~64 B), FX/FY (64 B), and ~10 element-scalar
// streams (80 B) ≈ 256 B per element; the fused q+force pass is the
// same order (the CMass|limiter record and the neighbour touches in
// place of Ein0/Mass).
const fusedBytesPerElem = 256

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
	s.Pool.ForChunksTiled(hi-lo, s.fuseTile, s.kb.qforce)
}

// qforceBody runs getq then getforce per element (elemQ, elemForce —
// the bodies of qBody and forceBody) on one gather.
func (s *State) qforceBody(_, plo, phi int) {
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

// floorsFor sizes and zeroes the per-chunk floor-energy partials for a
// t-chunk dispatch. The fused update accumulates into the slots per
// element (the launcher cannot, because a chunk spans several tiles),
// so they must start at zero.
func (s *State) floorsFor(t int) {
	if cap(s.ka.floors) < floorStride*t {
		s.ka.floors = make([]float64, floorStride*t)
	}
	s.ka.floors = s.ka.floors[:floorStride*t]
	for c := 0; c < t; c++ {
		s.ka.floors[floorStride*c] = 0
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
	s.ka.nlo = 0
	s.Pool.For(s.Mesh.NNd, s.kb.move)
	t := s.Pool.NumChunks(hi - lo)
	if t < 1 {
		return 0, nil
	}
	s.floorsFor(t)
	s.ka.lo = lo
	s.Pool.ForChunksTiled(hi-lo, s.fuseTile, s.kb.update)
	if err := s.scanTangled(lo, hi); err != nil {
		return 0, err
	}
	var total float64
	for c := 0; c < t; c++ {
		total += s.ka.floors[floorStride*c]
	}
	return total, nil
}

func (s *State) updateBody(chunk, plo, phi int) {
	mats := s.Opt.Materials
	reg := s.Mesh.Region
	lo, dt := s.ka.lo, s.ka.dt
	uArr, vArr := s.ka.u, s.ka.v
	fl := &s.ka.floors[floorStride*chunk]
	for e := lo + plo; e < lo+phi; e++ {
		s.fusedElem(e, dt, uArr, vArr, mats, reg, fl)
	}
}

// FusedUpdateList is FusedUpdate's list-dispatch twin for the
// overlapped schedule's interior/boundary bands: no node move (the
// caller interleaves MoveNodes with the exchange phases) and no tangle
// scan (deferred to the caller, after both bands). Returns the
// floor-energy partial for the listed elements.
func (s *State) FusedUpdateList(dt float64, uArr, vArr []float64, list []int) float64 {
	t := s.Pool.NumChunks(len(list))
	if t < 1 {
		return 0
	}
	s.floorsFor(t)
	s.ka.list, s.ka.dt = list, dt
	s.ka.u, s.ka.v = uArr, vArr
	s.Pool.ForChunksTiled(len(list), s.fuseTile, s.kb.updateList)
	var total float64
	for c := 0; c < t; c++ {
		total += s.ka.floors[floorStride*c]
	}
	return total
}

func (s *State) updateListBody(chunk, plo, phi int) {
	mats := s.Opt.Materials
	reg := s.Mesh.Region
	dt := s.ka.dt
	list := s.ka.list
	uArr, vArr := s.ka.u, s.ka.v
	fl := &s.ka.floors[floorStride*chunk]
	for i := plo; i < phi; i++ {
		s.fusedElem(list[i], dt, uArr, vArr, mats, reg, fl)
	}
}

// fusedElem is the per-element vol→rho→ein→pc chain both fused update
// bodies share: the per-element expressions of volBody, rhoBody,
// einBody and pcBody back to back. The floor partial accumulates into
// the chunk's padded slot per element (not via a tile-local temporary)
// so the addition order matches the unfused einBody's local
// accumulator bit for bit.
func (s *State) fusedElem(e int, dt float64, uArr, vArr []float64, mats []eos.Material, reg []int, fl *float64) {
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
		*fl += -ein * mass
		ein = 0
	}
	s.Ein[e] = ein
	s.P[e], s.Csq[e] = pressureCsq(mat, rho, ein)
}

// correctorSyncFused is correctorSync on the fused passes: the same two
// blocking communication points, with q+force and the update chain each
// a single sweep.
func (s *State) correctorSyncFused(tm *timers.Set, hooks *Hooks, dt float64) error {
	nel := s.Mesh.NOwnEl

	tm.Start(TimerQForce)
	s.getQForce(0, nel, s.U0, s.V0, true)
	tm.Stop(TimerQForce)

	if hooks != nil && hooks.ExchangeForces != nil {
		tm.Start(TimerComms)
		hooks.ExchangeForces(s)
		tm.Stop(TimerComms)
	}

	tm.Start(TimerGetAcc)
	s.GetAcc(dt)
	tm.Stop(TimerGetAcc)
	s.ExternalWork += -dt * s.pistonWork()

	if hooks != nil && hooks.ExchangeVelocities != nil {
		tm.Start(TimerComms)
		hooks.ExchangeVelocities(s)
		tm.Stop(TimerComms)
	}

	tm.Start(TimerLagUpdate)
	fl, err := s.FusedUpdate(dt, s.UBar, s.VBar, 0, nel)
	tm.Stop(TimerLagUpdate)
	if err != nil {
		return err
	}
	s.FloorEnergy += fl
	return nil
}

// correctorOverlapFused is correctorOverlap on the fused passes. The
// band disjointness argument is unchanged — interior elements read no
// ghost node, interior nodes no ghost corner force — and within each
// band the fused update is per-element pure, so the interior sweep can
// run while ghost velocities are in flight exactly as the unfused list
// kernels do. The tangle scan still covers the full owned range,
// ascending, after both bands; the floor total commits only if it
// passes.
func (s *State) correctorOverlapFused(tm *timers.Set, hooks *Hooks, dt float64) error {
	m := s.Mesh
	nel := m.NOwnEl
	b := hooks.Band

	tm.Start(TimerQForce)
	s.getQForce(0, nel, s.U0, s.V0, true)
	tm.Stop(TimerQForce)

	tm.Start(TimerComms)
	hooks.StartForces(s)
	tm.Stop(TimerComms)

	tm.Start(TimerGetAcc)
	s.GetAccList(b.IntNds, dt)
	tm.Stop(TimerGetAcc)

	tm.Start(TimerComms)
	hooks.FinishForces(s)
	tm.Stop(TimerComms)

	tm.Start(TimerGetAcc)
	s.GetAccList(b.BndNds, dt)
	tm.Stop(TimerGetAcc)
	s.ExternalWork += -dt * s.pistonWork()

	tm.Start(TimerComms)
	hooks.StartVelocities(s)
	tm.Stop(TimerComms)

	tm.Start(TimerLagUpdate)
	s.MoveNodes(dt, s.UBar, s.VBar, 0, m.NOwnNd)
	fl := s.FusedUpdateList(dt, s.UBar, s.VBar, b.IntEls)
	tm.Stop(TimerLagUpdate)

	tm.Start(TimerComms)
	hooks.FinishVelocities(s)
	tm.Stop(TimerComms)

	tm.Start(TimerLagUpdate)
	s.MoveNodes(dt, s.UBar, s.VBar, m.NOwnNd, m.NNd)
	fl += s.FusedUpdateList(dt, s.UBar, s.VBar, b.BndEls)
	err := s.scanTangled(0, nel)
	tm.Stop(TimerLagUpdate)
	if err != nil {
		return err
	}
	s.FloorEnergy += fl
	return nil
}
