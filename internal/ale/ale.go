// Package ale implements BookLeaf's optional advection (remap) step:
// ALEGETMESH selects the target mesh (full Eulerian restore or a
// relaxation-smoothed mesh), ALEGETFVOL computes swept volumes from the
// Lagrangian to the target mesh, ALEADVECT transports the independent
// variables (corner/cell mass, cell internal energy, nodal momentum)
// with a second-order van Leer/Barth-limited donor-cell scheme in
// swept-volume form (Benson), and ALEUPDATE rebuilds the dependent
// variables (density, specific energy, velocity) on the target mesh.
//
// The corner (sub-zonal) control volumes make the staggered remap
// conservative by construction: every sub-face flux is added to one
// corner and subtracted from its neighbour, so total mass, internal
// energy and momentum are conserved to round-off — invariants the
// tests assert.
//
// The pipeline runs on the state's worker pool. Every scatter of the
// original serial remap is restructured as a stage-then-gather pair:
// a parallel pass stages each flux once (per element edge, per face
// half), and a parallel gather replays each entity's contributions in
// the exact order the serial loop added them — ascending elements for
// nodal momentum and masses (the mesh's NdCorner transpose), ascending
// face index for cell-boundary fluxes (ElemFaces) — so the result is
// bitwise identical to the serial remap at any thread count. The face
// list is the remap's alone: NewRemapper has the mesh build it
// (mesh.BuildFaces), and a run without a remapper never holds one.
//
// Each quantity is formed once per remap. A snapshot sweep caches the
// pre-remap cell density, energy and centroid, and every later reader
// (gradient stencil, reconstruction, sub-face centroid) loads them; one
// gradient sweep builds the least-squares matrix and the face-midpoint
// offsets once for both fields; the per-element bodies work on named
// scalars through helpers small enough for the compiler to inline
// (make shape checks that); and the three failure guards are flags set
// by the sweeps that already hold the guarded value. Steady-state Apply
// performs no heap allocations: all scratch lives in the Remapper and
// the kernel bodies are bound once in NewRemapper.
package ale

import (
	"fmt"
	"math"
	"sync/atomic"

	"bookleaf/internal/geom"
	"bookleaf/internal/hydro"
	"bookleaf/internal/mesh"
	"bookleaf/internal/obs"
	"bookleaf/internal/par"
)

// Mode selects the ALE target-mesh strategy.
type Mode int

const (
	// Eulerian remaps back to the generated initial mesh every step
	// (the mesh never accumulates Lagrangian drift).
	Eulerian Mode = iota
	// Smoothed relaxes interior nodes towards the average of their
	// edge neighbours, the classic ALE mesh-quality strategy.
	Smoothed
)

func (m Mode) String() string {
	switch m {
	case Eulerian:
		return "eulerian"
	case Smoothed:
		return "smoothed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configure the remap.
type Options struct {
	Mode Mode
	// SmoothWeight in (0,1] blends node positions towards the
	// neighbour average in Smoothed mode.
	SmoothWeight float64
	// FirstOrder disables the limited linear reconstruction (ablation).
	FirstOrder bool
}

// Hooks extend the remap to distributed meshes: each refreshes ghost
// entries of the given fields; nil (or a nil hook) means serial
// operation.
//
// Apply performs its exchanges in a fixed order — node targets
// (Smoothed mode only), cell fields, then one velocity exchange after a
// successful update. A failed Apply returns without the velocity
// exchange: a distributed driver ends the epoch on any failure (the
// failing rank aborts its communicator), so no peer waits on it.
type Hooks struct {
	// ExchangeCellFields refreshes ghost-element entries of the given
	// element-indexed fields.
	ExchangeCellFields func(fields ...[]float64)
	// ExchangeNodeFields refreshes ghost-node entries of the smoothed
	// target coordinates, fixing the halo-truncated smoothing stencils
	// ghost nodes would otherwise see.
	ExchangeNodeFields func(x, y []float64)
	// ExchangeVelocities refreshes ghost-node velocities after the
	// remap rebuilds them.
	ExchangeVelocities func(u, v []float64)
}

// ErrRemap reports a remap failure: a flux emptied a corner mass (the
// mesh moved more than a cell width in one remap; Element and Corner
// name it), a target element has no positive volume (Corner is -1), or
// a node was left without mass (Element is -1, Corner the node). It
// names the lowest failing index at any thread count. The corner and
// volume failures are found before anything is written, so the state
// still holds the pre-remap fields when Apply returns them.
type ErrRemap struct {
	Element int
	Corner  int
	Mass    float64
}

func (e *ErrRemap) Error() string {
	return fmt.Sprintf("ale: corner %d of element %d left with mass %v after remap", e.Corner, e.Element, e.Mass)
}

// Transient marks remap failures as retryable: the flux overshoot is a
// function of how far the mesh drifted since the last remap, so a
// rollback that halves the timestep cap shrinks the drift and lets the
// remap succeed on replay.
func (e *ErrRemap) Transient() bool { return true }

// Remapper holds scratch storage for repeated remaps of one state.
type Remapper struct {
	Opt Options

	// Target coordinates. Eulerian mode never writes them: they alias
	// the mesh's generated X/Y. Smoothed mode owns them.
	xT, yT         []float64
	cx, cy         []float64 // pre-remap cell centroids (snapshot)
	cRho, cEin     []float64 // cell density/energy snapshots
	gradRX, gradRY []float64 // limited density gradient
	gradEX, gradEY []float64 // limited energy gradient
	dCMass         []float64 // corner mass deltas
	dEnergy        []float64 // cell internal-energy deltas
	dPx, dPy       []float64 // nodal momentum deltas, then total momenta

	// Node -> neighbour-node adjacency in CSR form (Smoothed mode),
	// built in global element order so the smoothing sum order is
	// rank-independent.
	adjStart, adjList []int

	// Element -> interior-face incidence in CSR form, ascending face
	// index (mesh.ElemFaces): the face-flux gather's replay order.
	efStart, efList []int32

	// Staged fluxes: one slot per element edge (internal sub-faces)
	// and per face half (cell-boundary half-faces). A zero gain marks
	// an empty slot whose flux entries are stale and must not be read.
	eGain, ePx, ePy   []float64
	fGain, fMass, fEn []float64

	volT []float64 // target-mesh volumes, checked before commit

	// Guard flags, each set by the sweep that forms the guarded value
	// when it finds one <= 0. Whether a flag ends up set does not depend
	// on which worker saw which index, so the verdict is the same at
	// every thread count; a serial ascending rescan names the offender.
	badCorner, badVol, badNode atomic.Bool

	// s is the state of the Apply in progress, the one operand the
	// pre-bound bodies read from the Remapper rather than a closure
	// capture — which keeps the steady-state remap free of heap
	// allocations, mirroring the hydro kernels' kernelArgs.
	s  *hydro.State
	kb remapBodies
}

// remapBodies holds the pool bodies, bound once in NewRemapper so
// dispatching them allocates nothing.
type remapBodies struct {
	smooth, pin                   func(lo, hi int)
	snapshot, grad                func(lo, hi int)
	subFaces, faceFlux            func(lo, hi int)
	faceGather, momGather         func(lo, hi int)
	vols, massEnergy, ndMass, vel func(lo, hi int)
}

// NewRemapper allocates a remapper for the given state, building the
// mesh's face list if this is the mesh's first remapper.
func NewRemapper(opt Options, s *hydro.State) *Remapper {
	m := s.Mesh
	m.BuildFaces()
	nel, nnd := m.NEl, m.NNd
	r := &Remapper{
		Opt:     opt,
		cx:      make([]float64, nel),
		cy:      make([]float64, nel),
		cRho:    make([]float64, nel),
		cEin:    make([]float64, nel),
		gradRX:  make([]float64, nel),
		gradRY:  make([]float64, nel),
		gradEX:  make([]float64, nel),
		gradEY:  make([]float64, nel),
		dCMass:  make([]float64, 4*nel),
		dEnergy: make([]float64, nel),
		dPx:     make([]float64, nnd),
		dPy:     make([]float64, nnd),
		eGain:   make([]float64, 4*nel),
		ePx:     make([]float64, 4*nel),
		ePy:     make([]float64, 4*nel),
		fGain:   make([]float64, 2*len(m.Faces)),
		fMass:   make([]float64, 2*len(m.Faces)),
		fEn:     make([]float64, 2*len(m.Faces)),
		volT:    make([]float64, nel),
	}
	r.efStart, r.efList = m.ElemFaces()
	if opt.Mode == Smoothed {
		r.xT = make([]float64, nnd)
		r.yT = make([]float64, nnd)
		r.adjStart, r.adjList = buildAdjacency(m)
	}
	r.kb = remapBodies{
		smooth:     r.smoothRange,
		pin:        r.pinRange,
		snapshot:   r.snapshotRange,
		grad:       r.gradRange,
		subFaces:   r.subFacesRange,
		faceFlux:   r.faceFluxRange,
		faceGather: r.faceGatherRange,
		momGather:  r.momGatherRange,
		vols:       r.volsRange,
		massEnergy: r.massEnergyRange,
		ndMass:     r.ndMassRange,
		vel:        r.velRange,
	}
	return r
}

// buildAdjacency builds the node→neighbour adjacency in CSR form
// (offsets + one flat list) from the node→element CSR, counting then
// filling. A node's neighbours are listed in the order an element sweep
// in global index order would first meet its edges: ring elements by
// ascending global id, each element's two edges at the node by
// ascending edge index. That sequence — and therefore the order of the
// smoothing sum — matches the one the undecomposed mesh produces no
// matter how a partition renumbered the local elements. Combined with
// the one-element-deep ghost layer (every element around an owned node
// is local), this makes the smoothed targets of owned nodes bitwise
// rank-independent.
func buildAdjacency(m *mesh.Mesh) (start, list []int) {
	// neighbours returns node n's sequence in a buffer reused across
	// calls; ring is its corner slots sorted by global element id (a
	// handful, already sorted when GlobalEl is nil).
	var ring []int32
	var nb []int
	neighbours := func(n int) []int {
		ring, nb = ring[:0], nb[:0]
		for _, c := range m.CornersAround(n) {
			g := m.GlobalElID(int(c >> 2))
			j := len(ring)
			ring = append(ring, c)
			for ; j > 0 && m.GlobalElID(int(ring[j-1]>>2)) > g; j-- {
				ring[j] = ring[j-1]
			}
			ring[j] = c
		}
		for _, slot := range ring {
			nd, c := &m.ElNd[slot>>2], slot&3
			// Edge c-1 ends at corner c and edge c starts there; at corner
			// 0 those are edges 3 and 0, so edge 0's far node comes first.
			first, second := nd[(c+3)&3], nd[(c+1)&3]
			if c == 0 {
				first, second = second, first
			}
			for _, b := range [2]int{int(first), int(second)} {
				seen := false
				for _, o := range nb {
					seen = seen || o == b
				}
				if !seen {
					nb = append(nb, b)
				}
			}
		}
		return nb
	}
	start = make([]int, m.NNd+1)
	for n := 0; n < m.NNd; n++ {
		start[n+1] = start[n] + len(neighbours(n))
	}
	list = make([]int, start[m.NNd])
	for n := 0; n < m.NNd; n++ {
		copy(list[start[n]:], neighbours(n))
	}
	return start, list
}

// Apply performs one remap of s onto the target mesh, updating
// coordinates, masses, density, energy and velocity in place. The
// phases are timed under "alestep" sub-names to mirror the paper's
// ALESTEP breakdown.
//
// The two guards that can fire on a connected mesh — a corner mass
// driven non-positive by its fluxes, a target element of non-positive
// volume — are checked before the first write to s, so an ErrRemap from
// either leaves s bitwise the pre-remap state. The nodal-mass guard
// runs after masses and energies are rewritten; once the corner guard
// has passed it can only fire for a node with an empty element ring.
func (r *Remapper) Apply(s *hydro.State, tm *obs.Clock, hooks *Hooks) error {
	m := s.Mesh
	nel, nnd := m.NEl, m.NNd
	pool := s.Pool
	if pool == nil {
		pool = par.Serial
	}
	r.s = s
	r.badCorner.Store(false)
	r.badVol.Store(false)
	r.badNode.Store(false)

	// --- ALEGETMESH: choose target coordinates.
	tm.Start("alegetmesh")
	switch r.Opt.Mode {
	case Eulerian:
		// The generated coordinates are static, so they serve as the
		// target unchanged and their ghost entries are already correct:
		// no copy, no exchange.
		r.xT, r.yT = m.X, m.Y
	case Smoothed:
		// Smooth owned nodes only: every element around an owned node
		// is local, so the stencil is complete. Ghost targets come
		// from their owning rank — smoothing them locally would use
		// halo-truncated stencils and make results rank-dependent.
		own := m.NOwnNd
		pool.For(own, r.kb.smooth)
		if hooks != nil && hooks.ExchangeNodeFields != nil {
			hooks.ExchangeNodeFields(r.xT, r.yT)
		} else {
			// No exchange available (serial meshes have no ghosts;
			// hookless local meshes keep their stale coordinates
			// pinned rather than smoothed by a truncated stencil).
			pool.For(nnd-own, r.kb.pin)
		}
	}
	tm.Stop("alegetmesh")

	// --- ALEGETFVOL: snapshot, then reconstruction gradients (second
	// order). The snapshot covers ghosts too: their centroids are local
	// geometry, and their density and energy stand until the exchange.
	tm.Start("alegetfvol")
	pool.For(nel, r.kb.snapshot)
	cellExch := hooks != nil && hooks.ExchangeCellFields != nil
	gn := nel
	if cellExch {
		// Ghost entries arrive from their owners; computing them
		// locally would be dead work.
		gn = m.NOwnEl
	}
	if r.Opt.FirstOrder {
		clear(r.gradRX)
		clear(r.gradRY)
		clear(r.gradEX)
		clear(r.gradEY)
	} else {
		pool.For(gn, r.kb.grad)
	}
	if cellExch {
		hooks.ExchangeCellFields(r.cRho, r.cEin, r.gradRX, r.gradRY, r.gradEX, r.gradEY)
	}
	tm.Stop("alegetfvol")

	// --- ALEADVECT: stage sub-face swept-volume fluxes, then gather.
	tm.Start("aleadvect")
	pool.For(nel, r.kb.subFaces)
	pool.For(len(m.Faces), r.kb.faceFlux)
	pool.For(nel, r.kb.faceGather)
	pool.For(nnd, r.kb.momGather)
	tm.Stop("aleadvect")

	// --- ALEUPDATE: guard, apply deltas, rebuild dependent variables.
	tm.Start("aleupdate")
	// Target volumes depend on the target coordinates alone, so they and
	// the corner masses the gather just finished are judged before any
	// state is touched: a swept flux exceeding its donor corner's mass
	// (the mesh moved more than a cell width, typically because the
	// target mesh tangled) would otherwise drive density negative
	// mid-commit.
	pool.For(nel, r.kb.vols)
	err := r.guardFailure(s)
	if err == nil {
		pool.For(nel, r.kb.massEnergy)
		pool.For(nnd, r.kb.ndMass)
		err = r.guardFailure(s) // only the nodal flag can be up now
	}
	if err != nil {
		tm.Stop("aleupdate")
		return err
	}
	velExch := hooks != nil && hooks.ExchangeVelocities != nil
	velN := nnd
	if velExch {
		// Ghost velocities come from their owners via the exchange.
		velN = m.NOwnNd
	}
	pool.For(velN, r.kb.vel)
	copy(s.X, r.xT)
	copy(s.Y, r.yT)
	s.GetPC(0, m.NOwnEl)
	if velExch {
		hooks.ExchangeVelocities(s.U, s.V)
	}
	tm.Stop("aleupdate")
	return nil
}

// guardFailure turns a raised guard flag into the error naming the
// lowest offending index: corner masses first, then target volumes,
// then (once ndMassRange has run) nodal masses.
func (r *Remapper) guardFailure(s *hydro.State) error {
	if r.badCorner.Load() {
		cs := s.CornerStride()
		for i, d := range r.dCMass {
			if v := s.CMass[(i>>2)*cs+(i&3)] + d; v <= 0 {
				return &ErrRemap{Element: i / 4, Corner: i & 3, Mass: v}
			}
		}
	}
	if r.badVol.Load() {
		for e, v := range r.volT {
			if v <= 0 {
				return &ErrRemap{Element: e, Corner: -1, Mass: v}
			}
		}
	}
	if r.badNode.Load() {
		for n, v := range s.NdMass {
			if v <= 0 {
				return &ErrRemap{Element: -1, Corner: n, Mass: v}
			}
		}
	}
	return nil
}

// --- ALEGETMESH kernels -------------------------------------------------

func (r *Remapper) smoothRange(lo, hi int) {
	s := r.s
	for n := lo; n < hi; n++ {
		r.smoothNode(s, n)
	}
}

func (r *Remapper) smoothNode(s *hydro.State, n int) {
	m := s.Mesh
	a0, a1 := r.adjStart[n], r.adjStart[n+1]
	if m.BCs[n] != 0 || a1 == a0 {
		r.xT[n] = s.X[n]
		r.yT[n] = s.Y[n]
		return
	}
	var ax, ay float64
	for _, nb := range r.adjList[a0:a1] {
		ax += s.X[nb]
		ay += s.Y[nb]
	}
	w := r.Opt.SmoothWeight
	inv := 1 / float64(a1-a0)
	r.xT[n] = (1-w)*s.X[n] + w*ax*inv
	r.yT[n] = (1-w)*s.Y[n] + w*ay*inv
}

// pinRange holds the targets of non-owned nodes [NOwnNd+lo, NOwnNd+hi)
// at their current coordinates.
func (r *Remapper) pinRange(lo, hi int) {
	s := r.s
	own := s.Mesh.NOwnNd
	for n := own + lo; n < own+hi; n++ {
		r.xT[n] = s.X[n]
		r.yT[n] = s.Y[n]
	}
}

// --- ALEGETFVOL kernels -------------------------------------------------

// snapshotRange caches what every later phase reads of the pre-remap
// state per cell: density, energy and the vertex-average centroid. The
// coordinates do not move until the remap commits, so a cached centroid
// has the bits a fresh evaluation of the same expression would.
func (r *Remapper) snapshotRange(lo, hi int) {
	s := r.s
	m := s.Mesh
	for e := lo; e < hi; e++ {
		nd := &m.ElNd[e]
		r.cRho[e] = s.Rho[e]
		r.cEin[e] = s.Ein[e]
		r.cx[e] = avg4(s.X[nd[0]], s.X[nd[1]], s.X[nd[2]], s.X[nd[3]])
		r.cy[e] = avg4(s.Y[nd[0]], s.Y[nd[1]], s.Y[nd[2]], s.Y[nd[3]])
	}
}

// gradRange fills the density and energy gradients: least-squares cell
// gradients over face neighbours, limited Barth-Jespersen style so
// reconstructed face-midpoint values stay within the neighbour min/max
// (the monotonicity-enforcing limiter the paper cites via van Leer).
// The normal matrix and the midpoint offsets are geometry, formed once
// and shared by the two fields.
func (r *Remapper) gradRange(lo, hi int) {
	s := r.s
	m := s.Mesh
	for e := lo; e < hi; e++ {
		cx, cy := r.cx[e], r.cy[e]
		rho, ein := r.cRho[e], r.cEin[e]
		// Least squares normal equations.
		var sxx, sxy, syy, rxp, ryp, exp, eyp float64
		rmin, rmax, emin, emax := rho, rho, ein, ein
		nNb := 0
		for _, nb := range &m.ElEl[e] {
			if nb < 0 {
				continue
			}
			nNb++
			dx, dy := r.cx[nb]-cx, r.cy[nb]-cy
			rn, en := r.cRho[nb], r.cEin[nb]
			dr, de := rn-rho, en-ein
			sxx += dx * dx
			sxy += dx * dy
			syy += dy * dy
			rxp += dx * dr
			ryp += dy * dr
			exp += dx * de
			eyp += dy * de
			if rn < rmin {
				rmin = rn
			}
			if rn > rmax {
				rmax = rn
			}
			if en < emin {
				emin = en
			}
			if en > emax {
				emax = en
			}
		}
		det := sxx*syy - sxy*sxy
		if nNb < 2 || math.Abs(det) < 1e-300 {
			r.gradRX[e], r.gradRY[e] = 0, 0
			r.gradEX[e], r.gradEY[e] = 0, 0
			continue
		}
		// Edge midpoints relative to the centroid, where the limiter
		// samples the reconstruction.
		nd := &m.ElNd[e]
		x0, x1, x2, x3 := s.X[nd[0]], s.X[nd[1]], s.X[nd[2]], s.X[nd[3]]
		y0, y1, y2, y3 := s.Y[nd[0]], s.Y[nd[1]], s.Y[nd[2]], s.Y[nd[3]]
		fx0, fy0 := 0.5*(x0+x1)-cx, 0.5*(y0+y1)-cy
		fx1, fy1 := 0.5*(x1+x2)-cx, 0.5*(y1+y2)-cy
		fx2, fy2 := 0.5*(x2+x3)-cx, 0.5*(y2+y3)-cy
		fx3, fy3 := 0.5*(x3+x0)-cx, 0.5*(y3+y0)-cy

		gx := (rxp*syy - ryp*sxy) / det
		gy := (ryp*sxx - rxp*sxy) / det
		up, dn := rmax-rho, rmin-rho
		a := bjLimit(1, gx*fx0+gy*fy0, up, dn)
		a = bjLimit(a, gx*fx1+gy*fy1, up, dn)
		a = bjLimit(a, gx*fx2+gy*fy2, up, dn)
		a = bjLimit(a, gx*fx3+gy*fy3, up, dn)
		if a < 0 {
			a = 0
		}
		r.gradRX[e], r.gradRY[e] = a*gx, a*gy

		gx = (exp*syy - eyp*sxy) / det
		gy = (eyp*sxx - exp*sxy) / det
		up, dn = emax-ein, emin-ein
		a = bjLimit(1, gx*fx0+gy*fy0, up, dn)
		a = bjLimit(a, gx*fx1+gy*fy1, up, dn)
		a = bjLimit(a, gx*fx2+gy*fy2, up, dn)
		a = bjLimit(a, gx*fx3+gy*fy3, up, dn)
		if a < 0 {
			a = 0
		}
		r.gradEX[e], r.gradEY[e] = a*gx, a*gy
	}
}

// bjLimit lowers the Barth-Jespersen factor alpha to what one sample
// point allows: d is the unlimited reconstruction's excursion there,
// up and dn the room to the neighbourhood maximum and minimum.
func bjLimit(alpha, d, up, dn float64) float64 {
	var a float64
	switch {
	case d > 0:
		a = up / d
	case d < 0:
		a = dn / d
	default:
		return alpha
	}
	if a < alpha {
		return a
	}
	return alpha
}

// --- ALEADVECT kernels --------------------------------------------------

func (r *Remapper) subFacesRange(lo, hi int) {
	s := r.s
	for e := lo; e < hi; e++ {
		r.subFaceEl(s, e)
	}
}

// subFaceEl stages element e's internal sub-face fluxes (edge midpoint
// -> centroid), which move mass and momentum between the corners of one
// cell. The corner-mass deltas are fully element-local, so they are
// accumulated here in the serial loop's edge order and assigned; the
// momentum fluxes are staged per edge for momGatherRange to replay.
func (r *Remapper) subFaceEl(s *hydro.State, e int) {
	nd := &s.Mesh.ElNd[e]
	n0, n1, n2, n3 := nd[0], nd[1], nd[2], nd[3]
	xo0, xo1, xo2, xo3 := s.X[n0], s.X[n1], s.X[n2], s.X[n3]
	yo0, yo1, yo2, yo3 := s.Y[n0], s.Y[n1], s.Y[n2], s.Y[n3]
	xn0, xn1, xn2, xn3 := r.xT[n0], r.xT[n1], r.xT[n2], r.xT[n3]
	yn0, yn1, yn2, yn3 := r.yT[n0], r.yT[n1], r.yT[n2], r.yT[n3]
	cxo, cyo := r.cx[e], r.cy[e]
	cxn, cyn := avg4(xn0, xn1, xn2, xn3), avg4(yn0, yn1, yn2, yn3)

	g, ex, ey := subFace(0.5*(xo0+xo1), 0.5*(yo0+yo1), 0.5*(xn0+xn1), 0.5*(yn0+yn1), cxo, cyo, cxn, cyn)
	mf0 := r.stageEdge(s, 4*e+0, g, r.reconRho(e, ex, ey), n0, n1)
	g, ex, ey = subFace(0.5*(xo1+xo2), 0.5*(yo1+yo2), 0.5*(xn1+xn2), 0.5*(yn1+yn2), cxo, cyo, cxn, cyn)
	mf1 := r.stageEdge(s, 4*e+1, g, r.reconRho(e, ex, ey), n1, n2)
	g, ex, ey = subFace(0.5*(xo2+xo3), 0.5*(yo2+yo3), 0.5*(xn2+xn3), 0.5*(yn2+yn3), cxo, cyo, cxn, cyn)
	mf2 := r.stageEdge(s, 4*e+2, g, r.reconRho(e, ex, ey), n2, n3)
	g, ex, ey = subFace(0.5*(xo3+xo0), 0.5*(yo3+yo0), 0.5*(xn3+xn0), 0.5*(yn3+yn0), cxo, cyo, cxn, cyn)
	mf3 := r.stageEdge(s, 4*e+3, g, r.reconRho(e, ex, ey), n3, n0)

	// Edge k's flux enters corner k and leaves corner k+1, added in
	// edge order; an empty edge contributes an exact zero.
	var d0, d1, d2, d3 float64
	d0 += mf0
	d1 -= mf0
	d1 += mf1
	d2 -= mf1
	d2 += mf2
	d3 -= mf2
	d3 += mf3
	d0 -= mf3
	r.dCMass[4*e+0] = d0
	r.dCMass[4*e+1] = d1
	r.dCMass[4*e+2] = d2
	r.dCMass[4*e+3] = d3
}

// subFace returns the volume a corner annexes from the next one across
// their shared sub-face — the segment from the midpoint (mx, my) of the
// edge between them to the cell centroid, CCW for the annexing corner —
// as the cell moves from the old (o) to the new (n) coordinates, and
// the centre of the swept quad, where the donor density is sampled.
func subFace(mxo, myo, mxn, myn, cxo, cyo, cxn, cyn float64) (gain, ex, ey float64) {
	gain = -sweptArea(mxo, myo, cxo, cyo, mxn, myn, cxn, cyn)
	return gain, avg4(mxo, cxo, mxn, cxn), avg4(myo, cyo, myn, cyn)
}

// stageEdge records one sub-face in its edge slot and returns the mass
// it carries from the corner at node b to the corner at node a (zero
// for an empty slot), given the density rho reconstructed at the swept
// quad's centre. Nodal momentum is upwinded: the donor node is the
// corner the mass leaves.
func (r *Remapper) stageEdge(s *hydro.State, slot int, gain, rho float64, a, b int32) float64 {
	r.eGain[slot] = gain
	if gain == 0 {
		return 0
	}
	mf := gain * rho
	donor := upwind(gain, a, b)
	r.ePx[slot] = mf * s.U[donor]
	r.ePy[slot] = mf * s.V[donor]
	return mf
}

// faceFluxRange stages the cell-boundary half-face fluxes, which move
// mass and energy between cells (corners of the same node in adjacent
// cells, so no momentum transfer). Half 0 is (n1 -> M), half 1 is
// (M -> n2), both CCW for the Left element.
func (r *Remapper) faceFluxRange(lo, hi int) {
	s := r.s
	m := s.Mesh
	for i := lo; i < hi; i++ {
		f := &m.Faces[i]
		if f.Right < 0 {
			// Wall: no flux. Clear the gains so the gather skips the
			// stale flux entries.
			r.fGain[2*i] = 0
			r.fGain[2*i+1] = 0
			continue
		}
		n1, n2 := f.N1, f.N2
		x1o, y1o := s.X[n1], s.Y[n1]
		x2o, y2o := s.X[n2], s.Y[n2]
		x1n, y1n := r.xT[n1], r.yT[n1]
		x2n, y2n := r.xT[n2], r.yT[n2]
		mxo, myo := 0.5*(x1o+x2o), 0.5*(y1o+y2o)
		mxn, myn := 0.5*(x1n+x2n), 0.5*(y1n+y2n)
		g0 := -sweptArea(x1o, y1o, mxo, myo, x1n, y1n, mxn, myn)
		g1 := -sweptArea(mxo, myo, x2o, y2o, mxn, myn, x2n, y2n)
		r.fGain[2*i], r.fGain[2*i+1] = g0, g1
		// A non-empty half carries the mass and energy reconstructed in
		// its donor cell at the centre of the swept quad.
		if g0 != 0 {
			donor, ex, ey := upwind(g0, f.Left, f.Right), avg4(x1o, mxo, x1n, mxn), avg4(y1o, myo, y1n, myn)
			mf := g0 * r.reconRho(int(donor), ex, ey)
			r.fMass[2*i] = mf
			r.fEn[2*i] = mf * r.reconEin(int(donor), ex, ey)
		}
		if g1 != 0 {
			donor, ex, ey := upwind(g1, f.Left, f.Right), avg4(mxo, x2o, mxn, x2n), avg4(myo, y2o, myn, y2n)
			mf := g1 * r.reconRho(int(donor), ex, ey)
			r.fMass[2*i+1] = mf
			r.fEn[2*i+1] = mf * r.reconEin(int(donor), ex, ey)
		}
	}
}

// upwind returns the donor of a flux whose gain is counted for a: b
// when a gains volume, a when it loses.
func upwind(gain float64, a, b int32) int32 {
	if gain < 0 {
		return a
	}
	return b
}

// faceGatherRange replays each element's staged half-face fluxes in
// ascending (face, half) order — the order the serial face loop added
// them — on top of the internal sub-face deltas, keeping every corner
// slot's accumulation sequence bitwise identical to the serial remap.
// That finishes the corner-mass deltas, so the corner guard is judged
// here.
func (r *Remapper) faceGatherRange(lo, hi int) {
	s := r.s
	m := s.Mesh
	cs := s.CornerStride()
	bad := false
	for e := lo; e < hi; e++ {
		nd := &m.ElNd[e]
		d := r.dCMass[4*e : 4*e+4 : 4*e+4]
		var den float64
		for _, i := range r.efList[r.efStart[e]:r.efStart[e+1]] {
			g0, g1 := r.fGain[2*i], r.fGain[2*i+1]
			if g0 == 0 && g1 == 0 {
				continue
			}
			f := &m.Faces[i]
			sign := 1.0
			if e != int(f.Left) {
				sign = -1
			}
			if g0 != 0 {
				d[cornerOf(nd, f.N1)] += sign * r.fMass[2*i]
				den += sign * r.fEn[2*i]
			}
			if g1 != 0 {
				d[cornerOf(nd, f.N2)] += sign * r.fMass[2*i+1]
				den += sign * r.fEn[2*i+1]
			}
		}
		r.dEnergy[e] = den
		c := s.CMass[cs*e : cs*e+4 : cs*e+4]
		if c[0]+d[0] <= 0 || c[1]+d[1] <= 0 || c[2]+d[2] <= 0 || c[3]+d[3] <= 0 {
			bad = true
		}
	}
	if bad {
		r.badCorner.Store(true)
	}
}

// momGatherRange gathers each node's staged momentum fluxes over its
// element ring (the NdCorner transpose, ascending by element). Within
// one element, corner 0 receives edge 0's flux before edge 3's and
// corner k>0 receives edge k-1's before edge k's — exactly the serial
// k-loop's add order — and empty slots (gain 0) are skipped just as
// the serial loop skipped them, so the sums match bit for bit.
func (r *Remapper) momGatherRange(lo, hi int) {
	s := r.s
	m := s.Mesh
	for n := lo; n < hi; n++ {
		var px, py float64
		for _, slot := range m.CornersAround(n) {
			e, c := slot>>2, slot&3
			if c == 0 {
				if r.eGain[4*e+0] != 0 {
					px += r.ePx[4*e+0]
					py += r.ePy[4*e+0]
				}
				if r.eGain[4*e+3] != 0 {
					px -= r.ePx[4*e+3]
					py -= r.ePy[4*e+3]
				}
			} else {
				if r.eGain[4*e+c-1] != 0 {
					px -= r.ePx[4*e+c-1]
					py -= r.ePy[4*e+c-1]
				}
				if r.eGain[4*e+c] != 0 {
					px += r.ePx[4*e+c]
					py += r.ePy[4*e+c]
				}
			}
		}
		r.dPx[n] = px
		r.dPy[n] = py
	}
}

// --- ALEUPDATE kernels --------------------------------------------------

// volsRange computes the target-mesh volumes into volT and judges the
// volume guard, so tangled targets are detected before anything is
// committed.
func (r *Remapper) volsRange(lo, hi int) {
	m := r.s.Mesh
	bad := false
	for e := lo; e < hi; e++ {
		nd := &m.ElNd[e]
		n0, n1, n2, n3 := nd[0], nd[1], nd[2], nd[3]
		v := geom.QuadArea(r.xT[n0], r.xT[n1], r.xT[n2], r.xT[n3], r.yT[n0], r.yT[n1], r.yT[n2], r.yT[n3])
		r.volT[e] = v
		if v <= 0 {
			bad = true
		}
	}
	if bad {
		r.badVol.Store(true)
	}
}

// massEnergyRange applies the deltas to the independent variables and
// rebuilds the cell's dependent ones on the target volume — the first
// writes to the state.
func (r *Remapper) massEnergyRange(lo, hi int) {
	s := r.s
	cs := s.CornerStride()
	for e := lo; e < hi; e++ {
		c := s.CMass[cs*e : cs*e+4 : cs*e+4]
		d := r.dCMass[4*e : 4*e+4 : 4*e+4]
		c0, c1, c2, c3 := c[0]+d[0], c[1]+d[1], c[2]+d[2], c[3]+d[3]
		c[0], c[1], c[2], c[3] = c0, c1, c2, c3
		// The corner guard passed, so every term is positive and the
		// sum from zero is the sum from c0.
		newMass := c0 + c1 + c2 + c3
		energy := s.Mass[e]*s.Ein[e] + r.dEnergy[e]
		vol := r.volT[e]
		s.Mass[e] = newMass
		s.Ein[e] = energy / newMass
		s.Vol[e] = vol
		s.Rho[e] = newMass / vol
	}
}

// ndMassRange turns each node's momentum delta into its total momentum
// using the pre-remap nodal mass, then rebuilds that mass as the sum of
// its corner masses over the node's element ring (ascending, matching
// the serial element-scatter's accumulation order) and judges the
// nodal-mass guard.
func (r *Remapper) ndMassRange(lo, hi int) {
	s := r.s
	m := s.Mesh
	cs := int32(s.CornerStride())
	bad := false
	for n := lo; n < hi; n++ {
		r.dPx[n] = s.NdMass[n]*s.U[n] + r.dPx[n]
		r.dPy[n] = s.NdMass[n]*s.V[n] + r.dPy[n]
		var sum float64
		for _, c := range m.NdCorner[m.NdElStart[n]:m.NdElStart[n+1]] {
			sum += s.CMass[(c>>2)*cs+c&3]
		}
		s.NdMass[n] = sum
		if sum <= 0 {
			bad = true
		}
	}
	if bad {
		r.badNode.Store(true)
	}
}

func (r *Remapper) velRange(lo, hi int) {
	s := r.s
	m := s.Mesh
	for n := lo; n < hi; n++ {
		u := r.dPx[n] / s.NdMass[n]
		v := r.dPy[n] / s.NdMass[n]
		bc := m.BCs[n]
		if bc&mesh.FixU != 0 {
			u = 0
		}
		if bc&mesh.FixV != 0 {
			v = 0
		}
		s.U[n] = u
		s.V[n] = v
	}
}

// --- geometry helpers ---------------------------------------------------

// sweptArea returns the shoelace area of the quad (aOld, bOld, bNew,
// aNew) traced by segment a->b moving from old to new positions.
func sweptArea(axo, ayo, bxo, byo, axn, ayn, bxn, byn float64) float64 {
	// Shoelace over (axo,ayo) (bxo,byo) (bxn,byn) (axn,ayn).
	return 0.5 * ((bxn-axo)*(ayn-byo) - (axn-bxo)*(byn-ayo))
}

// avg4 is the vertex average of one coordinate of a quad — its centroid
// in the sense of geom.Centroid, on four scalars.
func avg4(a, b, c, d float64) float64 { return 0.25 * (a + b + c + d) }

// cornerOf returns which corner of elNd holds node n.
func cornerOf(elNd *[4]int32, n int32) int {
	for k := 0; k < 4; k++ {
		if elNd[k] == n {
			return k
		}
	}
	panic("ale: node is not a corner of element")
}

// reconRho evaluates the limited linear density reconstruction of cell
// e at point (px, py), falling back to the cell mean where the linear
// value is not positive.
func (r *Remapper) reconRho(e int, px, py float64) float64 {
	v := r.cRho[e] + r.gradRX[e]*(px-r.cx[e]) + r.gradRY[e]*(py-r.cy[e])
	if v <= 0 {
		return r.cRho[e]
	}
	return v
}

// reconEin evaluates the limited linear energy reconstruction of cell
// e at point (px, py).
func (r *Remapper) reconEin(e int, px, py float64) float64 {
	return r.cEin[e] + r.gradEX[e]*(px-r.cx[e]) + r.gradEY[e]*(py-r.cy[e])
}
