package hydro

import (
	"math"

	"bookleaf/internal/eos"
	"bookleaf/internal/geom"
	"bookleaf/internal/mesh"
)

// kernelArgs is the scratch arena for the pre-bound kernel bodies: the
// per-call arguments a body needs are written here immediately before
// the pool dispatch that reads them, and are never read across steps.
// Keeping arguments in State fields (instead of closure captures) is
// what lets the bodies be created once, so steady-state steps allocate
// nothing — see kernelBodies.
type kernelArgs struct {
	// lo is the element offset of the current [lo, hi) kernel call;
	// bodies receive chunk-relative ranges and add it back.
	lo int
	// dt is the timestep operand of the acc/geom/ein bodies.
	dt float64
	// u, v are the nodal velocity operands of the viscosity/force/
	// geom/ein bodies (U0 in the predictor, UBar in the corrector).
	u, v []float64
	// reuse lets the viscosity sweep read the limiter its predecessor
	// stored instead of evaluating it (see elemQ); only Step's fused
	// corrector sets it.
	reuse bool
	// floors holds per-chunk floor-energy partials at stride
	// floorStride (cache-line padded); sized lazily to the pool width.
	floors []float64
}

// floorStride pads the per-chunk floor-energy partials to a cache line
// (8 float64s) so chunks never false-share.
const floorStride = 8

// kernelBodies holds the loop bodies dispatched to the pool. They are
// bound to the State once in NewState: a closure passed to Pool.For
// escapes to the heap, so creating bodies per call would allocate on
// every kernel invocation — pre-binding plus the kernelArgs arena is
// what makes the Lagrangian step zero-allocation at any thread count
// (asserted by the AllocsPerRun regression tests).
type kernelBodies struct {
	q, force, acc, qforce func(lo, hi int)
	move, vol, rho, pc    func(lo, hi int)
	ein, update           func(chunk, lo, hi int)
	scatter, scatterAcc   func(lo, hi int)
	cflDiv                func(e int) (float64, float64)
}

// bindKernels creates the pre-bound kernel bodies. Called once from
// NewState.
func (s *State) bindKernels() {
	s.kb = kernelBodies{
		q: s.qBody, force: s.forceBody, acc: s.accBody, qforce: s.qforceBody,
		move: s.moveBody, vol: s.volBody, rho: s.rhoBody, pc: s.pcBody,
		ein: s.einBody, update: s.updateBody,
		scatter: s.scatterBody, scatterAcc: s.scatterAccBody,
		cflDiv: s.cflDivOperand,
	}
}

// DtCause identifies which condition controlled the last GetDt result
// — the dt-controller dynamics the paper's evaluation tracks. The
// observability layer counts steps per cause.
type DtCause uint8

const (
	// DtCauseInitial is the prescribed first-step timestep.
	DtCauseInitial DtCause = iota
	// DtCauseCFL is the sound-speed (CFL) condition.
	DtCauseCFL
	// DtCauseDivergence is the volume-change (divergence) limit.
	DtCauseDivergence
	// DtCauseGrowth is the growth cap relative to the previous step.
	DtCauseGrowth
	// DtCauseMax is the absolute DtMax ceiling.
	DtCauseMax
)

// String returns the metric-friendly name of the cause.
func (c DtCause) String() string {
	switch c {
	case DtCauseInitial:
		return "initial"
	case DtCauseCFL:
		return "cfl"
	case DtCauseDivergence:
		return "divergence"
	case DtCauseGrowth:
		return "growth"
	case DtCauseMax:
		return "max"
	}
	return "unknown"
}

// GetDt computes the stable timestep over owned elements and the
// element controlling it. It applies, in order: the CFL sound-speed
// condition (with the viscosity correction 2q/rho in the signal speed),
// the volume-change (divergence) limit, the growth cap relative to the
// previous step, and DtMax. In a distributed run the caller reduces
// (dt, element) globally with MINLOC, exactly as the paper's single
// global reduction. The winning condition is left in s.DtCause (local
// to this rank; the global controller's cause lives on the rank that
// wins the MINLOC).
func (s *State) GetDt() (dt float64, controller int) {
	// CFL condition: dt_e = CFL * L / sqrt(c² + 2q/rho), and the
	// divergence condition dt_e = DivSafety / |div u| — an explicit
	// parallel min-reduction of each (the expanded MINVAL/MINLOC loop
	// the paper describes), both fed from one coordinate/velocity
	// gather per element. par guarantees ReduceMin2 returns the (min,
	// argmin) bits of two separate ReduceMin sweeps.
	cflMin, cflArg, divMin, divArg := s.Pool.ReduceMin2(s.Mesh.NOwnEl, s.kb.cflDiv)
	dt, controller = cflMin, cflArg
	s.DtCause = DtCauseCFL
	if divMin < dt {
		dt, controller = divMin, divArg
		s.DtCause = DtCauseDivergence
	}
	if g := s.Opt.DtGrowth * s.DtPrev; g < dt {
		dt, controller = g, -1
		s.DtCause = DtCauseGrowth
	}
	if s.Opt.DtMax < dt {
		dt, controller = s.Opt.DtMax, -1
		s.DtCause = DtCauseMax
	}
	return dt, controller
}

// cflDivOperand is GetDt's reduction operand: element e's CFL and
// divergence conditions from one gather.
func (s *State) cflDivOperand(e int) (float64, float64) {
	nd := &s.Mesh.ElNd[e]
	x0, x1, x2, x3, y0, y1, y2, y3 := gather8(s.X, s.Y, nd)
	u0, u1, u2, u3, v0, v1, v2, v3 := gather8(s.U, s.V, nd)
	return s.cflDt(e, x0, x1, x2, x3, y0, y1, y2, y3),
		s.divDt(x0, x1, x2, x3, y0, y1, y2, y3, u0, u1, u2, u3, v0, v1, v2, v3)
}

// cflDt is element e's sound-speed condition CFL·L/sqrt(c² + 2q/ρ); a
// signal speed that is not positive (or not a number) imposes none.
func (s *State) cflDt(e int, x0, x1, x2, x3, y0, y1, y2, y3 float64) float64 {
	sig2 := s.Csq[e] + 2*s.Q[e]/s.Rho[e]
	if !(sig2 > 0) {
		return math.Inf(1)
	}
	return s.Opt.CFL * geom.MinLength(x0, x1, x2, x3, y0, y1, y2, y3) / math.Sqrt(sig2)
}

// divDt is an element's volume-change condition DivSafety/|div u|.
func (s *State) divDt(x0, x1, x2, x3, y0, y1, y2, y3, u0, u1, u2, u3, v0, v1, v2, v3 float64) float64 {
	d := math.Abs(geom.Divergence(x0, x1, x2, x3, y0, y1, y2, y3, u0, u1, u2, u3, v0, v1, v2, v3))
	if d == 0 {
		return math.Inf(1)
	}
	return s.Opt.DivSafety / d
}

// GetQ computes the edge-centred artificial viscosity of elements
// [lo, hi) following Caramana et al.: each compressive edge contributes
// a quadratic + linear term scaled by a monotonic limiter built from
// velocity-difference ratios against the neighbouring element across
// the edge and the element's own opposite edge. The element q is the
// mean of its edge contributions. This is the most expensive kernel in
// BookLeaf (~70% of flat-MPI runtime in the paper's Table II): per
// element it gathers two neighbour rings, takes square roots and
// evaluates limiters.
func (s *State) GetQ(lo, hi int) {
	s.viscArgs(lo, s.U, s.V, false)
	s.Pool.For(hi-lo, s.kb.q)
}

// viscArgs stages the operands of a viscosity sweep starting at element
// lo.
func (s *State) viscArgs(lo int, uArr, vArr []float64, reuse bool) {
	s.ka.lo = lo
	s.ka.u, s.ka.v = uArr, vArr
	s.ka.reuse = reuse
}

func (s *State) qBody(plo, phi int) {
	lo := s.ka.lo
	uArr, vArr := s.ka.u, s.ka.v
	for e := lo + plo; e < lo+phi; e++ {
		nd := &s.Mesh.ElNd[e]
		x0, x1, x2, x3, y0, y1, y2, y3 := gather8(s.X, s.Y, nd)
		u0, u1, u2, u3, v0, v1, v2, v3 := gather8(uArr, vArr, nd)
		s.Q[e] = s.elemQ(e, x0, x1, x2, x3, y0, y1, y2, y3, u0, u1, u2, u3, v0, v1, v2, v3, s.Rho[e], math.Sqrt(s.Csq[e]))
	}
}

// noPsi marks a stored limiter slot whose edge was not compressive when
// the sweep that wrote it ran (a limiter itself lies in [0, 1]).
const noPsi = -1

// elemQ returns the viscosity of element e — the mean of its four edge
// contributions — from its gathered coordinates and velocities. Edge k
// joins corner k to corner k+1.
//
// The sixteen gathered values, the edge differences and the four
// contributions are named scalars, and each formula is one small helper
// called once per edge: the Go compiler keeps scalars in registers,
// whereas a [4]float64 indexed by a loop variable lives on the stack,
// its loop is not unrolled and every access is bounds-checked. The
// helpers (compressive, nbProj, limit, edgeVisc) are each within the
// inliner's budget, so the four edges compile to straight-line code;
// check with -gcflags=-m before growing one.
//
// The limiter ψ depends on the sweep's velocity field alone — which
// edges are compressive depends on the coordinates too. Step's
// predictor and corrector sweeps both take the start-of-step copy
// U0/V0, which nothing writes between them (GetAcc, the first writer,
// follows the corrector's sweep), so the corrector (ka.reuse) reads the
// ψ the predictor stored and evaluates only where it finds noPsi: an
// edge the half-step geometry has turned compressive. Every other
// sweep starts from noPsi everywhere and so evaluates every edge it
// needs.
func (s *State) elemQ(e int, x0, x1, x2, x3, y0, y1, y2, y3, u0, u1, u2, u3, v0, v1, v2, v3, rho, cs float64) float64 {
	psis := s.psi[cornerStride*e : cornerStride*e+4]
	if !s.ka.reuse {
		psis[0], psis[1], psis[2], psis[3] = noPsi, noPsi, noPsi, noPsi
	}
	nbs, facing := &s.Mesh.ElEl[e], s.facing[4*e:4*e+4]
	rq2, rq1 := s.Opt.CQ2, s.Opt.CQ1*cs
	dux0, duy0 := u1-u0, v1-v0
	dux1, duy1 := u2-u1, v2-v1
	dux2, duy2 := u3-u2, v3-v2
	dux3, duy3 := u0-u3, v0-v3
	var q0, q1, q2, q3 float64
	if du2 := compressive(dux0, duy0, x1-x0, y1-y0); du2 != 0 {
		if psis[0] < 0 {
			psis[0] = limit(s.nbProj(nbs[0], facing[0], dux0, duy0, -dux2*dux0+-duy2*duy0), du2)
		}
		q0 = edgeVisc(psis[0], rho, rq2, rq1, du2)
	}
	if du2 := compressive(dux1, duy1, x2-x1, y2-y1); du2 != 0 {
		if psis[1] < 0 {
			psis[1] = limit(s.nbProj(nbs[1], facing[1], dux1, duy1, -dux3*dux1+-duy3*duy1), du2)
		}
		q1 = edgeVisc(psis[1], rho, rq2, rq1, du2)
	}
	if du2 := compressive(dux2, duy2, x3-x2, y3-y2); du2 != 0 {
		if psis[2] < 0 {
			psis[2] = limit(s.nbProj(nbs[2], facing[2], dux2, duy2, -dux0*dux2+-duy0*duy2), du2)
		}
		q2 = edgeVisc(psis[2], rho, rq2, rq1, du2)
	}
	if du2 := compressive(dux3, duy3, x0-x3, y0-y3); du2 != 0 {
		if psis[3] < 0 {
			psis[3] = limit(s.nbProj(nbs[3], facing[3], dux3, duy3, -dux1*dux3+-duy1*duy3), du2)
		}
		q3 = edgeVisc(psis[3], rho, rq2, rq1, du2)
	}
	return 0.25 * (0 + q0 + q1 + q2 + q3)
}

// compressive returns the squared velocity difference |Δu|² along an
// edge whose velocity and position differences are (dux, duy) and
// (dxx, dxy) if the edge is shortening, and zero if it is not: only
// compressive edges carry viscosity.
func compressive(dux, duy, dxx, dxy float64) float64 {
	if dux*dxx+duy*dxy >= 0 {
		return 0
	}
	return dux*dux + duy*duy
}

// edgeVisc is the edge viscosity (1-ψ)·ρ·(cq2·Δu² + cq1·c·|Δu|), with
// rq2 = cq2 and rq1 = cq1·c.
func edgeVisc(psi, rho, rq2, rq1, du2 float64) float64 {
	return (1 - psi) * rho * (rq2*du2 + rq1*math.Sqrt(du2))
}

// nbProj and limit evaluate the monotonic limiter of an edge with
// velocity difference (dux, duy): ratios of the projections of the
// cross-edge velocity differences onto this edge's, from (a) the
// neighbour across this edge and (b) this element's own opposite edge.
// Smooth fields give ratios near 1 (q off); extrema give negative ratios
// (full q). At boundaries only the one-sided (own-edge) ratio is
// available — using it keeps smoothly compressing boundary cells
// viscosity-free (a hard zero there seeds spurious boundary jets in cold
// converging flow).
//
// nbProj returns the smaller of proj — the own-edge projection — and
// the projection from neighbour nb, whose side kk faces this element.
// That side, traversed in nb's CCW order, runs opposite to ours; its
// opposite edge (kk+2) runs parallel to ours again after negation. kk
// comes from the precomputed facing table (static topology), and only
// the two nodes of that edge are loaded — the limiter never needs the
// neighbour's other corners.
func (s *State) nbProj(nb int32, kk int8, dux, duy, proj float64) float64 {
	if nb < 0 {
		return proj
	}
	if kk < 0 {
		// Asymmetric adjacency on an owned element would be a
		// partitioning bug.
		panic("hydro: element adjacency not symmetric")
	}
	nd := &s.Mesh.ElNd[nb]
	n0, n1 := nd[(kk+2)&3], nd[(kk+3)&3]
	return min(-(s.ka.u[n1]-s.ka.u[n0])*dux+-(s.ka.v[n1]-s.ka.v[n0])*duy, proj)
}

// limit turns the smaller projection into ψ = clamp(proj/Δu², 0, 1).
// Both ratios share the divisor Δu² > 0, and division by a positive
// number is monotone and correctly rounded, so min(a/Δu², b/Δu²) is
// min(a, b)/Δu² to the bit: one divide, and none at all when the
// smaller projection is not positive (ψ = 0 either way).
func limit(proj, du2 float64) float64 {
	if proj > 0 {
		if r := proj / du2; r > 0 {
			return min(1.0, r)
		}
	}
	return 0
}

// GetForce assembles corner forces for elements [lo, hi): the
// compatible pressure + viscosity force (P+q)·∇A plus the selected
// hourglass-control force. uArr, vArr supply the velocity field the
// hourglass terms act on.
func (s *State) GetForce(lo, hi int, uArr, vArr []float64) {
	s.ka.lo = lo
	s.ka.u, s.ka.v = uArr, vArr
	s.Pool.For(hi-lo, s.kb.force)
}

func (s *State) forceBody(plo, phi int) {
	lo := s.ka.lo
	uArr, vArr := s.ka.u, s.ka.v
	for e := lo + plo; e < lo+phi; e++ {
		nd := &s.Mesh.ElNd[e]
		x0, x1, x2, x3, y0, y1, y2, y3 := gather8(s.X, s.Y, nd)
		u0, u1, u2, u3, v0, v1, v2, v3 := gather8(uArr, vArr, nd)
		s.elemForce(e, x0, x1, x2, x3, y0, y1, y2, y3, u0, u1, u2, u3, v0, v1, v2, v3, s.Rho[e], s.Csq[e], s.Q[e])
	}
}

// elemForce assembles the corner forces of element e from its gathered
// coordinates and velocities and its viscosity q. The eight forces
// accumulate in named scalars and are stored once at the end.
func (s *State) elemForce(e int, x0, x1, x2, x3, y0, y1, y2, y3, u0, u1, u2, u3, v0, v1, v2, v3, rho, csq, q float64) {
	base := cornerStride * e
	pq := s.P[e] + q
	fx0, fy0 := gradForce(pq, x3, y3, x1, y1)
	fx1, fy1 := gradForce(pq, x0, y0, x2, y2)
	fx2, fy2 := gradForce(pq, x1, y1, x3, y3)
	fx3, fy3 := gradForce(pq, x2, y2, x0, y0)
	switch s.Opt.Hourglass {
	case HGFilter:
		// Hancock-style viscous filter: damp the velocity component
		// along the hourglass pattern Γ = (+1, -1, +1, -1).
		hu := 0.25 * (0 + u0 - u1 + u2 - u3)
		hv := 0.25 * (0 + v0 - v1 + v2 - v3)
		coef := s.Opt.HGKappa * rho * (math.Sqrt(csq) + math.Sqrt(hu*hu+hv*hv)) * math.Sqrt(s.Vol[e])
		tx, ty := coef*hu, coef*hv
		fx0, fy0, fx1, fy1 = fx0-tx, fy0-ty, fx1+tx, fy1+ty
		fx2, fy2, fx3, fy3 = fx2-tx, fy2-ty, fx3+tx, fy3+ty
	case HGSubzonal:
		// Caramana sub-zonal pressures: each corner carries a pressure
		// perturbation dp = c²·(ρ_corner - ρ) from its fixed sub-zonal
		// mass and current sub-zone volume, and exerts dp·∇(sub-zone
		// volume) on every node of the element — the exact force of
		// Caramana & Shashkov's formulation, which resists hourglass
		// and sliver distortions that leave the total element volume
		// unchanged. Momentum conserving by construction (each ∇ sums to
		// zero over nodes).
		//
		// The sub-zone of corner k is the quad (node k, edge-k midpoint,
		// centroid, edge-(k-1) midpoint). Its basis gradients are
		// expanded algebraically: the four ∂A/∂ values collapse onto
		// ±two independent components per axis (negation and
		// power-of-two scaling are exact in IEEE, so the expansion is
		// bit-identical to calling geom.BasisGrad on the constructed
		// quad), and the chain-rule weights — midpoints couple to their
		// two edge nodes with 1/2, the centroid to all four with 1/4 —
		// fold into four fused per-corner updates (subzonalPush, once
		// per axis).
		cx, cy := 0.25*(x0+x1+x2+x3), 0.25*(y0+y1+y2+y3)
		// Floor crushed corners: a corner at (or through) zero volume
		// feels the maximal restoring pressure.
		svFloor := 0.01 * s.Vol[e]
		// Stiffness scales with the full signal speed — including the
		// viscous 2q/ρ term — so sub-zonal pressures keep restoring
		// shape in cold shocked gas where the bare sound speed vanishes.
		stiff := s.Opt.HGSubMerit * (csq + 2*q/rho)
		mx0, my0 := 0.5*(x0+x1), 0.5*(y0+y1)
		mx1, my1 := 0.5*(x1+x2), 0.5*(y1+y2)
		mx2, my2 := 0.5*(x2+x3), 0.5*(y2+y3)
		mx3, my3 := 0.5*(x3+x0), 0.5*(y3+y0)
		cm := s.CMass[base : base+4]
		if dp := subzonalDp(cx, cy, x0, y0, mx0, my0, mx3, my3, svFloor, stiff, cm[0], rho); dp != 0 {
			fx0, fx1, fx3, fx2 = subzonalPush(dp, my0, my3, cy, y0, fx0, fx1, fx3, fx2)
			fy0, fy1, fy3, fy2 = subzonalPush(dp, mx3, mx0, x0, cx, fy0, fy1, fy3, fy2)
		}
		if dp := subzonalDp(cx, cy, x1, y1, mx1, my1, mx0, my0, svFloor, stiff, cm[1], rho); dp != 0 {
			fx1, fx2, fx0, fx3 = subzonalPush(dp, my1, my0, cy, y1, fx1, fx2, fx0, fx3)
			fy1, fy2, fy0, fy3 = subzonalPush(dp, mx0, mx1, x1, cx, fy1, fy2, fy0, fy3)
		}
		if dp := subzonalDp(cx, cy, x2, y2, mx2, my2, mx1, my1, svFloor, stiff, cm[2], rho); dp != 0 {
			fx2, fx3, fx1, fx0 = subzonalPush(dp, my2, my1, cy, y2, fx2, fx3, fx1, fx0)
			fy2, fy3, fy1, fy0 = subzonalPush(dp, mx1, mx2, x2, cx, fy2, fy3, fy1, fy0)
		}
		if dp := subzonalDp(cx, cy, x3, y3, mx3, my3, mx2, my2, svFloor, stiff, cm[3], rho); dp != 0 {
			fx3, fx0, fx2, fx1 = subzonalPush(dp, my3, my2, cy, y3, fx3, fx0, fx2, fx1)
			fy3, fy0, fy2, fy1 = subzonalPush(dp, mx2, mx3, x3, cx, fy3, fy0, fy2, fy1)
		}
	}
	fx, fy := s.FX[base:base+4], s.FY[base:base+4]
	fx[0], fx[1], fx[2], fx[3] = fx0, fx1, fx2, fx3
	fy[0], fy[1], fy[2], fy[3] = fy0, fy1, fy2, fy3
}

// gradForce returns p·∇A at a corner whose previous and next corners
// are (xm, ym) and (xp, yp): ∇A = ½(y₊ - y₋, x₋ - x₊), one corner of
// geom.BasisGrad.
func gradForce(p, xm, ym, xp, yp float64) (fx, fy float64) {
	return p * (0.5 * (yp - ym)), p * (0.5 * (xm - xp))
}

// subzonalDp returns the pressure perturbation of the corner at node
// (xk, yk), with edge midpoints (mxk, myk) ahead and (mxm, mym) behind,
// centroid (cx, cy) and sub-zonal mass cm: stiff·(cm/sub-zone area - ρ).
func subzonalDp(cx, cy, xk, yk, mxk, myk, mxm, mym, svFloor, stiff, cm, rho float64) float64 {
	// Sub-zone area by the same shoelace expression geom.SubVolumes
	// evaluates on the constructed quad.
	svk := 0.5 * ((cx-xk)*(mym-myk) - (mxm-mxk)*(cy-yk))
	if svk < svFloor {
		svk = svFloor
	}
	return stiff * (cm/svk - rho)
}

// subzonalPush applies, along one axis, the force a corner's pressure
// perturbation dp exerts on the four nodes: its own (fk), the next (fp),
// the previous (fm) and the opposite one (fo). b0 = ½(a-b) is the
// sub-zone's basis component at the corner's own node, b1 = ½(c-d) the
// one in the centroid direction; the other two quad gradients are their
// exact negations. For x pass (myk, mym, cy, yk), for y (mxm, mxk, xk,
// cx).
func subzonalPush(dp, a, b, c, d, fk, fp, fm, fo float64) (float64, float64, float64, float64) {
	b0, b1 := 0.5*(a-b), 0.5*(c-d)
	return fk + dp*(b0-0.25*b0), fp + dp*(0.5*b1-0.25*b0), fm + dp*(-0.5*b1-0.25*b0), fo - dp*0.25*b0
}

// GetAcc is the acceleration calculation: corner forces are summed to
// nodes, divided by nodal mass, boundary conditions applied, and
// velocities advanced by dt; UBar receives the time-centred velocity.
//
// The default formulation is a parallel gather: every node sums its
// incident corner forces through the node→corner CSR transpose
// (Mesh.NdCorner), so nodes are independent and the loop threads with
// no data dependency. Because each node's ring ascends in (element,
// corner) order — the exact order the reference element-ordered
// scatter adds contributions — the sums are bitwise-identical to the
// scatter at any thread count.
//
// Options.ScatterAcc restores the reference implementation's
// corner-force→node scatter, whose multiple-elements-per-node data
// dependency forces it onto one thread regardless of the pool ("it has
// currently been left unchanged, adversely affecting OpenMP
// performance" — the paper). It exists as the paper-fidelity ablation.
func (s *State) GetAcc(dt float64) {
	m := s.Mesh
	s.ka.dt = dt
	if !s.Opt.ScatterAcc {
		s.Pool.For(m.NOwnNd, s.kb.acc)
		return
	}
	// Reference scatter formulation over all local elements (ghost
	// corner forces included so owned-node sums are complete).
	if len(s.fxnd) == 0 {
		s.fxnd, s.fynd = make([]float64, m.NNd), make([]float64, m.NNd)
	}
	clear(s.fxnd)
	clear(s.fynd)
	s.Pool.Serial(m.NEl, s.kb.scatter)
	s.Pool.For(m.NOwnNd, s.kb.scatterAcc)
}

func (s *State) scatterBody(lo, hi int) {
	for e := lo; e < hi; e++ {
		nd := &s.Mesh.ElNd[e]
		base := cornerStride * e
		for k := 0; k < 4; k++ {
			s.fxnd[nd[k]] += s.FX[base+k]
			s.fynd[nd[k]] += s.FY[base+k]
		}
	}
}

func (s *State) scatterAccBody(lo, hi int) {
	dt := s.ka.dt
	for n := lo; n < hi; n++ {
		s.applyAccel(n, s.fxnd[n], s.fynd[n], dt)
	}
}

func (s *State) accBody(lo, hi int) {
	m := s.Mesh
	dt := s.ka.dt
	start, corners := m.NdElStart, m.NdCorner
	for n := lo; n < hi; n++ {
		var fx, fy float64
		for _, c := range corners[start[n]:start[n+1]] {
			ci := cornerSlot(c)
			fx += s.FX[ci]
			fy += s.FY[ci]
		}
		s.applyAccel(n, fx, fy, dt)
	}
}

// applyAccel advances node n by force (fx, fy) over dt with boundary
// conditions, filling U, V and UBar, VBar.
func (s *State) applyAccel(n int, fx, fy, dt float64) {
	bc := s.Mesh.BCs[n]
	if bc&mesh.Piston != 0 {
		// Prescribed wall: velocity pinned; work done on the gas is
		// accounted by Step via ExternalWork.
		s.U[n] = s.PistonU
		s.V[n] = s.PistonV
		s.UBar[n] = s.PistonU
		s.VBar[n] = s.PistonV
		return
	}
	if bc&mesh.FrozenVel != 0 {
		// Far-field inflow: velocity frozen at its current value.
		s.U[n] = s.U0[n]
		s.V[n] = s.V0[n]
		s.UBar[n] = s.U0[n]
		s.VBar[n] = s.V0[n]
		return
	}
	ax := fx / s.NdMass[n]
	ay := fy / s.NdMass[n]
	if bc&mesh.FixU != 0 {
		ax = 0
		s.U[n] = 0
		s.U0[n] = 0
	}
	if bc&mesh.FixV != 0 {
		ay = 0
		s.V[n] = 0
		s.V0[n] = 0
	}
	u1 := s.U0[n] + dt*ax
	v1 := s.V0[n] + dt*ay
	s.U[n] = u1
	s.V[n] = v1
	s.UBar[n] = 0.5 * (s.U0[n] + u1)
	s.VBar[n] = 0.5 * (s.V0[n] + v1)
}

// GetGeom moves nodes [0, nnd) to x0 + dt*u and recomputes the volumes
// of elements [lo, hi), returning an ErrTangled if any element inverts.
func (s *State) GetGeom(dt float64, uArr, vArr []float64, lo, hi int) error {
	s.ka.dt = dt
	s.ka.u, s.ka.v = uArr, vArr
	s.Pool.For(s.Mesh.NNd, s.kb.move)
	s.ka.lo = lo
	s.Pool.For(hi-lo, s.kb.vol)
	return s.scanTangled(lo, hi)
}

// scanTangled checks elements [lo, hi) for inversion. The scan is
// serial and ascending so the first (lowest-index) tangled element is
// reported deterministically regardless of thread count or schedule.
func (s *State) scanTangled(lo, hi int) error {
	for e := lo; e < hi; e++ {
		if s.Vol[e] <= 0 {
			return &ErrTangled{Element: e, Volume: s.Vol[e]}
		}
	}
	return nil
}

func (s *State) moveBody(lo, hi int) {
	dt := s.ka.dt
	uArr, vArr := s.ka.u, s.ka.v
	for n := lo; n < hi; n++ {
		s.X[n] = s.X0[n] + dt*uArr[n]
		s.Y[n] = s.Y0[n] + dt*vArr[n]
	}
}

func (s *State) volBody(plo, phi int) {
	lo := s.ka.lo
	for e := lo + plo; e < lo+phi; e++ {
		s.Vol[e] = geom.QuadArea(gather8(s.X, s.Y, &s.Mesh.ElNd[e]))
	}
}

// GetRho recomputes density of elements [lo, hi) from fixed mass and
// current volume — exact mass conservation by construction.
func (s *State) GetRho(lo, hi int) {
	s.ka.lo = lo
	s.Pool.For(hi-lo, s.kb.rho)
}

func (s *State) rhoBody(plo, phi int) {
	lo := s.ka.lo
	for e := lo + plo; e < lo+phi; e++ {
		s.Rho[e] = s.Mass[e] / s.Vol[e]
	}
}

// GetEin performs the compatible internal-energy update for elements
// [lo, hi): de = -dt · ΣF·u / m with the full corner forces and the
// given nodal velocities. Together with the same forces accelerating
// the nodes this conserves total energy to round-off.
//
// The update floors the energy at zero: an explicit step can overshoot
// the adiabatic cooling of a cold expanding cell past e = 0, and the
// resulting negative pressure puts the cell in unphysical tension that
// implodes it (tested failure mode on Noh). The energy the floor adds
// is returned; the step driver accumulates the corrector's (full-step)
// amount into FloorEnergy so conservation audits stay closed — it is
// identically zero on well-resolved problems. (Per-chunk partials are
// combined in chunk order, so on the rare runs where the floor fires
// the returned total — a diagnostic, never a field — can differ in the
// last bit across thread counts; the evolved fields themselves stay
// bitwise-identical because the flooring decision is per-element.)
func (s *State) GetEin(dt float64, uArr, vArr []float64, lo, hi int) float64 {
	s.ka.lo, s.ka.dt = lo, dt
	s.ka.u, s.ka.v = uArr, vArr
	return s.floorSweep(hi-lo, s.kb.ein)
}

// floorSweep dispatches an n-element body that leaves its chunk's
// floor-energy partial in ka.floors, and returns the partials summed in
// chunk order.
func (s *State) floorSweep(n int, body func(chunk, lo, hi int)) float64 {
	t := s.Pool.NumChunks(n)
	if t < 1 {
		return 0
	}
	if cap(s.ka.floors) < floorStride*t {
		s.ka.floors = make([]float64, floorStride*t)
	}
	s.ka.floors = s.ka.floors[:floorStride*t]
	s.Pool.ForChunks(n, body)
	var total float64
	for c := 0; c < t; c++ {
		total += s.ka.floors[floorStride*c]
	}
	return total
}

func (s *State) einBody(chunk, plo, phi int) {
	m := s.Mesh
	mats := s.Opt.Materials
	lo, dt := s.ka.lo, s.ka.dt
	uArr, vArr := s.ka.u, s.ka.v
	var added float64
	for e := lo + plo; e < lo+phi; e++ {
		u0, u1, u2, u3, v0, v1, v2, v3 := gather8(uArr, vArr, &m.ElNd[e])
		ein := s.Ein0[e] - dt*s.cornerWork(e, u0, u1, u2, u3, v0, v1, v2, v3)/s.Mass[e]
		// Floor only energy-dependent materials: for barotropic
		// forms (Tait, void) a negative tracked energy is elastic
		// bookkeeping, not a pressure pathology.
		if ein < 0 && mats[m.Region[e]].EnergyDependent() {
			added += -ein * s.Mass[e]
			ein = 0
		}
		s.Ein[e] = ein
	}
	s.ka.floors[floorStride*chunk] = added
}

// cornerWork returns ΣF·u over the corners of element e: the rate of
// work its corner forces do on its nodes' gathered velocities.
func (s *State) cornerWork(e int, u0, u1, u2, u3, v0, v1, v2, v3 float64) float64 {
	base := cornerStride * e
	fx, fy := s.FX[base:base+4], s.FY[base:base+4]
	return 0 + (fx[0]*u0 + fy[0]*v0) + (fx[1]*u1 + fy[1]*v1) + (fx[2]*u2 + fy[2]*v2) + (fx[3]*u3 + fy[3]*v3)
}

// GetPC evaluates the equation of state of elements [lo, hi): pressure
// and squared sound speed from density and internal energy.
func (s *State) GetPC(lo, hi int) {
	s.ka.lo = lo
	s.Pool.For(hi-lo, s.kb.pc)
}

func (s *State) pcBody(plo, phi int) {
	mats := s.Opt.Materials
	reg := s.Mesh.Region
	lo := s.ka.lo
	for e := lo + plo; e < lo+phi; e++ {
		s.P[e], s.Csq[e] = pressureCsq(mats[reg[e]], s.Rho[e], s.Ein[e])
	}
}

// pressureCsq evaluates a material's equation of state. The ideal gas —
// every region of the paper's problems — is reached by a type assertion,
// so its two one-line forms inline instead of costing two interface
// calls per element.
func pressureCsq(mat eos.Material, rho, ein float64) (p, csq float64) {
	if g, ok := mat.(eos.IdealGas); ok {
		return g.Pressure(rho, ein), g.SoundSpeed2(rho, ein)
	}
	return mat.Pressure(rho, ein), mat.SoundSpeed2(rho, ein)
}
