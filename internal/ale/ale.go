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
// nodal momentum and masses (the mesh's NdElList/NdCorner transpose),
// ascending face index for cell-boundary fluxes (ElemFaces) — so the
// result is bitwise identical to the serial remap at any thread count.
// Steady-state Apply performs no heap allocations: all scratch lives
// in the Remapper and the kernel bodies are bound once in NewRemapper.
package ale

import (
	"fmt"
	"math"
	"sort"

	"bookleaf/internal/geom"
	"bookleaf/internal/hydro"
	"bookleaf/internal/mesh"
	"bookleaf/internal/par"
	"bookleaf/internal/timers"
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

// DefaultOptions returns an Eulerian second-order remap.
func DefaultOptions() Options {
	return Options{Mode: Eulerian, SmoothWeight: 0.5}
}

// Hooks extend the remap to distributed meshes. The blocking variants
// refresh ghost entries of the given fields; nil (or a nil hook) means
// serial operation. When all six Start/Finish variants plus Band are
// set, Apply hides each exchange behind independent interior work (the
// phased overlap schedule).
//
// Apply performs its exchanges in a fixed order — node targets
// (Smoothed mode only), cell fields, then exactly one velocity
// exchange, which fires on every return path including failures — so
// ranks mixing success and failure stay in lockstep. ExchangeScratch
// replays the same sequence for a rank that must skip a remap its
// peers are performing.
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

	// Phased variants: Start posts the sends, Finish blocks until
	// ghost entries have landed. All-or-nothing with Band.
	StartCellFields  func(fields ...[]float64)
	FinishCellFields func()
	StartNodeFields  func(x, y []float64)
	FinishNodeFields func()
	StartVelocities  func(u, v []float64)
	FinishVelocities func()

	// Band is the interior/boundary split (mesh.BoundaryBand of the
	// local mesh) the overlap schedule dispatches over.
	Band *mesh.Band
}

// phased reports whether the full overlap schedule is available.
func (h *Hooks) phased() bool {
	return h != nil && h.Band != nil &&
		h.StartCellFields != nil && h.FinishCellFields != nil &&
		h.StartNodeFields != nil && h.FinishNodeFields != nil &&
		h.StartVelocities != nil && h.FinishVelocities != nil
}

// ErrRemap reports a remap failure (a flux emptied a corner mass, which
// means the mesh moved more than a cell width in one remap). It is
// detected before the deltas are committed, so the state still holds
// the pre-remap fields when Apply returns it.
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

	xT, yT         []float64 // target coordinates
	gradRX, gradRY []float64 // limited density gradient
	gradEX, gradEY []float64 // limited energy gradient
	cRho, cEin     []float64 // cell density/energy snapshots
	dCMass         []float64 // corner mass deltas
	dEnergy        []float64 // cell internal-energy deltas
	dPx, dPy       []float64 // nodal momentum deltas, then stashed totals

	// Node -> neighbour-node adjacency in CSR form (Smoothed mode),
	// built in global element order so the smoothing sum order is
	// rank-independent.
	adjStart, adjList []int

	// Element -> interior-face incidence in CSR form, ascending face
	// index (mesh.ElemFaces): the face-flux gather's replay order.
	efStart, efList []int

	// Staged fluxes: one slot per element edge (internal sub-faces)
	// and per face half (cell-boundary half-faces). A zero gain marks
	// an empty slot whose flux entries are stale and must not be read.
	eGain, ePx, ePy   []float64
	fGain, fMass, fEn []float64

	volT []float64 // target-mesh volumes, checked before commit

	uvStarted bool // a phased velocity exchange is in flight

	ra remapArgs
	kb remapBodies
}

// remapArgs carries per-dispatch kernel parameters. A single arena
// (rather than closure captures) keeps the steady-state remap free of
// heap allocations, mirroring the hydro kernels' kernelArgs.
type remapArgs struct {
	s           *hydro.State
	list        []int // element list for list-dispatched kernels
	base        int   // range offset for offset-dispatched kernels
	phi, gx, gy []float64
}

// remapBodies holds the pool bodies, bound once in NewRemapper so
// dispatching them allocates nothing.
type remapBodies struct {
	smooth       func(lo, hi int)
	pin          func(lo, hi int)
	grad         func(lo, hi int)
	subFaces     func(lo, hi int)
	subFacesList func(lo, hi int)
	faceFlux     func(lo, hi int)
	faceGather   func(lo, hi int)
	momGather    func(lo, hi int)
	massEnergy   func(lo, hi int)
	stash        func(lo, hi int)
	ndMass       func(lo, hi int)
	vel          func(lo, hi int)
	vols         func(lo, hi int)
	commit       func(lo, hi int)
	cmassAt      func(i int) float64
	ndMassAt     func(i int) float64
	volAt        func(i int) float64
}

// NewRemapper allocates a remapper for the given state.
func NewRemapper(opt Options, s *hydro.State) *Remapper {
	m := s.Mesh
	nel, nnd := m.NEl, m.NNd
	r := &Remapper{
		Opt:     opt,
		xT:      make([]float64, nnd),
		yT:      make([]float64, nnd),
		gradRX:  make([]float64, nel),
		gradRY:  make([]float64, nel),
		gradEX:  make([]float64, nel),
		gradEY:  make([]float64, nel),
		cRho:    make([]float64, nel),
		cEin:    make([]float64, nel),
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
		r.adjStart, r.adjList = buildAdjacency(m)
	}
	r.kb = remapBodies{
		smooth:       r.smoothRange,
		pin:          r.pinRange,
		grad:         r.gradRange,
		subFaces:     r.subFacesRange,
		subFacesList: r.subFacesListBody,
		faceFlux:     r.faceFluxRange,
		faceGather:   r.faceGatherRange,
		momGather:    r.momGatherRange,
		massEnergy:   r.massEnergyRange,
		stash:        r.stashRange,
		ndMass:       r.ndMassRange,
		vel:          r.velRange,
		vols:         r.volsRange,
		commit:       r.commitRange,
		cmassAt:      r.cmassAt,
		ndMassAt:     r.ndMassAt,
		volAt:        r.volAt,
	}
	return r
}

// nodeAdjacency is the original map-deduplicated [][]int adjacency
// builder, kept as the reference the CSR flattening is tested against.
func nodeAdjacency(m *mesh.Mesh) [][]int {
	adj := make([][]int, m.NNd)
	seen := make(map[[2]int]bool)
	for e := 0; e < m.NEl; e++ {
		appendEdges(m, e, adj, seen)
	}
	return adj
}

// appendEdges records element e's four edges into adj, deduplicating
// shared edges: each undirected edge is appended only when first seen,
// so neighbour order is a pure function of the element visit order.
func appendEdges(m *mesh.Mesh, e int, adj [][]int, seen map[[2]int]bool) {
	for k := 0; k < 4; k++ {
		a := m.ElNd[e][k]
		b := m.ElNd[e][(k+1)&3]
		key := [2]int{a, b}
		if a > b {
			key = [2]int{b, a}
		}
		if !seen[key] {
			seen[key] = true
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}
}

// buildAdjacency flattens the node→neighbour adjacency to CSR form
// (offsets + one flat list). Elements are visited in global index
// order, so a node's neighbour sequence — and therefore the order of
// the smoothing sum — matches the one the undecomposed mesh produces
// no matter how a partition renumbered the local elements. Combined
// with the one-element-deep ghost layer (every element around an owned
// node is local), this makes the smoothed targets of owned nodes
// bitwise rank-independent.
func buildAdjacency(m *mesh.Mesh) (start, list []int) {
	adj := make([][]int, m.NNd)
	seen := make(map[[2]int]bool)
	if m.GlobalEl == nil {
		for e := 0; e < m.NEl; e++ {
			appendEdges(m, e, adj, seen)
		}
	} else {
		order := make([]int, m.NEl)
		for e := range order {
			order[e] = e
		}
		sort.Slice(order, func(i, j int) bool {
			return m.GlobalEl[order[i]] < m.GlobalEl[order[j]]
		})
		for _, e := range order {
			appendEdges(m, e, adj, seen)
		}
	}
	start = make([]int, m.NNd+1)
	for n, nb := range adj {
		start[n+1] = start[n] + len(nb)
	}
	list = make([]int, start[m.NNd])
	for n, nb := range adj {
		copy(list[start[n]:], nb)
	}
	return start, list
}

// Apply performs one remap of s onto the target mesh, updating
// coordinates, masses, density, energy and velocity in place. The
// phases are timed under "alestep" sub-names to mirror the paper's
// ALESTEP breakdown. Failures are detected before any state is
// mutated, so an ErrRemap return leaves s on the pre-remap mesh.
func (r *Remapper) Apply(s *hydro.State, tm *timers.Set, hooks *Hooks) error {
	m := s.Mesh
	nel, nnd := m.NEl, m.NNd
	pool := s.Pool
	if pool == nil {
		pool = par.Serial
	}
	r.ra.s = s
	r.ra.base = 0
	r.uvStarted = false
	phased := hooks.phased()

	// --- ALEGETMESH: choose target coordinates.
	tm.Start("alegetmesh")
	switch r.Opt.Mode {
	case Eulerian:
		// The generated coordinates are static, so ghost entries of
		// m.X are already correct: no exchange needed.
		copy(r.xT, m.X)
		copy(r.yT, m.Y)
	case Smoothed:
		// Smooth owned nodes only: every element around an owned node
		// is local, so the stencil is complete. Ghost targets come
		// from their owning rank — smoothing them locally would use
		// halo-truncated stencils and make results rank-dependent.
		own := m.NOwnNd
		pool.For(own, r.kb.smooth)
		switch {
		case phased:
			hooks.StartNodeFields(r.xT, r.yT)
			// FinishNodeFields runs in the advect phase, after the
			// interior sub-face fluxes that need no ghost target.
		case hooks != nil && hooks.ExchangeNodeFields != nil:
			hooks.ExchangeNodeFields(r.xT, r.yT)
		default:
			// No exchange available (serial meshes have no ghosts;
			// hookless local meshes keep their stale coordinates
			// pinned rather than smoothed by a truncated stencil).
			r.ra.base = own
			pool.For(nnd-own, r.kb.pin)
			r.ra.base = 0
		}
	}
	tm.Stop("alegetmesh")

	// --- ALEGETFVOL: reconstruction gradients (second order).
	tm.Start("alegetfvol")
	copy(r.cRho, s.Rho)
	copy(r.cEin, s.Ein)
	cellExch := hooks != nil && (phased || hooks.ExchangeCellFields != nil)
	gn := nel
	if cellExch {
		// Ghost entries arrive from their owners; computing them
		// locally would be dead work (and, phased, a data race with
		// the in-flight receive).
		gn = m.NOwnEl
	}
	if r.Opt.FirstOrder {
		zero(r.gradRX)
		zero(r.gradRY)
		zero(r.gradEX)
		zero(r.gradEY)
	} else {
		r.ra.phi, r.ra.gx, r.ra.gy = r.cRho, r.gradRX, r.gradRY
		pool.For(gn, r.kb.grad)
		r.ra.phi, r.ra.gx, r.ra.gy = r.cEin, r.gradEX, r.gradEY
		pool.For(gn, r.kb.grad)
		r.ra.phi, r.ra.gx, r.ra.gy = nil, nil, nil
	}
	if !phased && cellExch {
		hooks.ExchangeCellFields(r.cRho, r.cEin, r.gradRX, r.gradRY, r.gradEX, r.gradEY)
	}
	tm.Stop("alegetfvol")

	// --- ALEADVECT: stage sub-face swept-volume fluxes, then gather.
	tm.Start("aleadvect")
	ownEl := m.NOwnEl
	switch {
	case phased && r.Opt.Mode == Smoothed:
		// Interior elements touch no ghost node: their internal
		// sub-face fluxes proceed while the smoothed ghost targets
		// travel. Boundary elements follow once the targets land,
		// hidden behind the cell-field exchange they don't read.
		r.ra.list = hooks.Band.IntEls
		pool.For(len(hooks.Band.IntEls), r.kb.subFacesList)
		hooks.FinishNodeFields()
		hooks.StartCellFields(r.cRho, r.cEin, r.gradRX, r.gradRY, r.gradEX, r.gradEY)
		r.ra.list = hooks.Band.BndEls
		pool.For(len(hooks.Band.BndEls), r.kb.subFacesList)
		r.ra.list = nil
		hooks.FinishCellFields()
		r.ra.base = ownEl
		pool.For(nel-ownEl, r.kb.subFaces)
		r.ra.base = 0
	case phased:
		// Owned elements read only their own reconstruction, so the
		// whole owned pass hides the ghost cell-field exchange.
		hooks.StartCellFields(r.cRho, r.cEin, r.gradRX, r.gradRY, r.gradEX, r.gradEY)
		pool.For(ownEl, r.kb.subFaces)
		hooks.FinishCellFields()
		r.ra.base = ownEl
		pool.For(nel-ownEl, r.kb.subFaces)
		r.ra.base = 0
	default:
		pool.For(nel, r.kb.subFaces)
	}
	pool.For(len(m.Faces), r.kb.faceFlux)
	pool.For(nel, r.kb.faceGather)
	pool.For(nnd, r.kb.momGather)
	tm.Stop("aleadvect")

	// --- ALEUPDATE: guard, apply deltas, rebuild dependent variables.
	tm.Start("aleupdate")
	// Corner-mass guard before any state is touched: a swept flux
	// exceeding its donor corner's mass (the mesh moved more than a
	// cell width, typically because the target mesh tangled) would
	// otherwise drive density negative mid-commit.
	if min, _ := pool.ReduceMin(4*nel, r.kb.cmassAt); min <= 0 {
		cs := s.CornerStride()
		for i := 0; i < 4*nel; i++ {
			if v := s.CMass[(i>>2)*cs+(i&3)] + r.dCMass[i]; v <= 0 {
				r.exchangeUV(s, hooks)
				tm.Stop("aleupdate")
				return &ErrRemap{Element: i / 4, Corner: i & 3, Mass: v}
			}
		}
	}
	pool.For(nel, r.kb.massEnergy)
	pool.For(nnd, r.kb.stash)
	pool.For(nnd, r.kb.ndMass)
	if min, _ := pool.ReduceMin(nnd, r.kb.ndMassAt); min <= 0 {
		for n := 0; n < nnd; n++ {
			if s.NdMass[n] <= 0 {
				r.exchangeUV(s, hooks)
				tm.Stop("aleupdate")
				return &ErrRemap{Element: -1, Corner: n, Mass: s.NdMass[n]}
			}
		}
	}
	velN := nnd
	if hooks != nil && (phased || hooks.ExchangeVelocities != nil) {
		// Ghost velocities come from their owners via the exchange.
		velN = m.NOwnNd
	}
	pool.For(velN, r.kb.vel)
	if phased {
		// Ghost velocities travel while volumes, density and EoS
		// rebuild — none of which read U or V.
		hooks.StartVelocities(s.U, s.V)
		r.uvStarted = true
	}
	pool.For(nel, r.kb.vols)
	if min, _ := pool.ReduceMin(nel, r.kb.volAt); min <= 0 {
		for e := 0; e < nel; e++ {
			if v := r.volT[e]; v <= 0 {
				r.exchangeUV(s, hooks)
				tm.Stop("aleupdate")
				return &ErrRemap{Element: e, Corner: -1, Mass: v}
			}
		}
	}
	copy(s.X, r.xT)
	copy(s.Y, r.yT)
	pool.For(nel, r.kb.commit)
	s.GetPC(0, m.NOwnEl)
	r.exchangeUV(s, hooks)
	tm.Stop("aleupdate")
	return nil
}

// exchangeUV performs the one velocity exchange Apply owes its peers:
// finishing the phased exchange if one is in flight, otherwise a
// blocking exchange of the current velocities. Every Apply (and
// ExchangeScratch) fires exactly one on every path, including error
// returns — the cross-rank remap schedule depends on it.
func (r *Remapper) exchangeUV(s *hydro.State, hooks *Hooks) {
	if hooks == nil {
		return
	}
	if r.uvStarted {
		r.uvStarted = false
		hooks.FinishVelocities()
		return
	}
	if hooks.phased() {
		hooks.StartVelocities(s.U, s.V)
		hooks.FinishVelocities()
		return
	}
	if hooks.ExchangeVelocities != nil {
		hooks.ExchangeVelocities(s.U, s.V)
	}
}

// ExchangeScratch replays Apply's full exchange sequence — node
// targets (Smoothed mode), cell fields, velocities — with the
// remapper's current scratch contents. Distributed drivers use it to
// keep the communication schedule symmetric when a rank must skip a
// remap its peers are still performing; the exchanged values are
// scratch (a collective rollback follows), only the message pattern
// matters.
func (r *Remapper) ExchangeScratch(s *hydro.State, hooks *Hooks) {
	if hooks == nil {
		return
	}
	phased := hooks.phased()
	if r.Opt.Mode == Smoothed {
		switch {
		case phased:
			hooks.StartNodeFields(r.xT, r.yT)
			hooks.FinishNodeFields()
		case hooks.ExchangeNodeFields != nil:
			hooks.ExchangeNodeFields(r.xT, r.yT)
		}
	}
	if phased {
		hooks.StartCellFields(r.cRho, r.cEin, r.gradRX, r.gradRY, r.gradEX, r.gradEY)
		hooks.FinishCellFields()
	} else if hooks.ExchangeCellFields != nil {
		hooks.ExchangeCellFields(r.cRho, r.cEin, r.gradRX, r.gradRY, r.gradEX, r.gradEY)
	}
	r.uvStarted = false
	r.exchangeUV(s, hooks)
}

// --- ALEGETMESH kernels -------------------------------------------------

func (r *Remapper) smoothRange(lo, hi int) {
	s := r.ra.s
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

func (r *Remapper) pinRange(lo, hi int) {
	s := r.ra.s
	for n := lo + r.ra.base; n < hi+r.ra.base; n++ {
		r.xT[n] = s.X[n]
		r.yT[n] = s.Y[n]
	}
}

// --- ALEGETFVOL kernel --------------------------------------------------

// gradRange fills the bound (gx, gy) with least-squares cell gradients
// of the bound phi over face neighbours, limited Barth-Jespersen style
// so reconstructed face-centroid values stay within the neighbour
// min/max (the monotonicity-enforcing limiter the paper cites via van
// Leer).
func (r *Remapper) gradRange(lo, hi int) {
	s := r.ra.s
	m := s.Mesh
	phi, gx, gy := r.ra.phi, r.ra.gx, r.ra.gy
	for e := lo; e < hi; e++ {
		cx, cy := cellCentroid(s, e)
		// Least squares normal equations.
		var sxx, sxy, syy, sxp, syp float64
		min, max := phi[e], phi[e]
		nNb := 0
		for k := 0; k < 4; k++ {
			nb := m.ElEl[e][k]
			if nb < 0 {
				continue
			}
			nNb++
			nx, ny := cellCentroid(s, nb)
			dx, dy := nx-cx, ny-cy
			dp := phi[nb] - phi[e]
			sxx += dx * dx
			sxy += dx * dy
			syy += dy * dy
			sxp += dx * dp
			syp += dy * dp
			if phi[nb] < min {
				min = phi[nb]
			}
			if phi[nb] > max {
				max = phi[nb]
			}
		}
		det := sxx*syy - sxy*sxy
		if nNb < 2 || math.Abs(det) < 1e-300 {
			gx[e], gy[e] = 0, 0
			continue
		}
		gxe := (sxp*syy - syp*sxy) / det
		gye := (syp*sxx - sxp*sxy) / det
		// Barth-Jespersen limiting at edge midpoints.
		alpha := 1.0
		nd := &m.ElNd[e]
		for k := 0; k < 4; k++ {
			kp := (k + 1) & 3
			fx := 0.5*(s.X[nd[k]]+s.X[nd[kp]]) - cx
			fy := 0.5*(s.Y[nd[k]]+s.Y[nd[kp]]) - cy
			d := gxe*fx + gye*fy
			var a float64
			switch {
			case d > 0:
				a = (max - phi[e]) / d
			case d < 0:
				a = (min - phi[e]) / d
			default:
				continue
			}
			if a < alpha {
				alpha = a
			}
		}
		if alpha < 0 {
			alpha = 0
		}
		gx[e] = alpha * gxe
		gy[e] = alpha * gye
	}
}

// --- ALEADVECT kernels --------------------------------------------------

func (r *Remapper) subFacesRange(lo, hi int) {
	s := r.ra.s
	for e := lo + r.ra.base; e < hi+r.ra.base; e++ {
		r.subFaceEl(s, e)
	}
}

func (r *Remapper) subFacesListBody(lo, hi int) {
	s := r.ra.s
	for _, e := range r.ra.list[lo:hi] {
		r.subFaceEl(s, e)
	}
}

// subFaceEl stages element e's internal sub-face fluxes (edge midpoint
// -> centroid), which move mass and momentum between the corners of one
// cell. The corner-mass deltas are fully element-local, so they are
// accumulated here in the serial loop's edge order and assigned; the
// momentum fluxes are staged per edge for momGatherRange to replay.
func (r *Remapper) subFaceEl(s *hydro.State, e int) {
	m := s.Mesh
	nd := &m.ElNd[e]
	var xo, yo, xn, yn [4]float64
	for k := 0; k < 4; k++ {
		xo[k] = s.X[nd[k]]
		yo[k] = s.Y[nd[k]]
		xn[k] = r.xT[nd[k]]
		yn[k] = r.yT[nd[k]]
	}
	cxo, cyo := geom.Centroid(&xo, &yo)
	cxn, cyn := geom.Centroid(&xn, &yn)
	var d [4]float64
	for k := 0; k < 4; k++ {
		kp := (k + 1) & 3
		// Midpoint of edge k, old and new.
		mxo := 0.5 * (xo[k] + xo[kp])
		myo := 0.5 * (yo[k] + yo[kp])
		mxn := 0.5 * (xn[k] + xn[kp])
		myn := 0.5 * (yn[k] + yn[kp])
		// Segment (M_k -> C) is CCW for corner k: gain is the
		// volume corner k annexes from corner k+1.
		gain := -sweptArea(mxo, myo, cxo, cyo, mxn, myn, cxn, cyn)
		r.eGain[4*e+k] = gain
		if gain == 0 {
			continue
		}
		ex := 0.25 * (mxo + cxo + mxn + cxn)
		ey := 0.25 * (myo + cyo + myn + cyn)
		rho := r.reconRho(e, ex, ey, s)
		mf := gain * rho
		d[k] += mf
		d[kp] -= mf
		// Upwind nodal momentum: donor node is the corner the mass
		// leaves.
		donor := nd[kp]
		if gain < 0 {
			donor = nd[k]
		}
		r.ePx[4*e+k] = mf * s.U[donor]
		r.ePy[4*e+k] = mf * s.V[donor]
	}
	r.dCMass[4*e+0] = d[0]
	r.dCMass[4*e+1] = d[1]
	r.dCMass[4*e+2] = d[2]
	r.dCMass[4*e+3] = d[3]
}

// faceFluxRange stages the cell-boundary half-face fluxes, which move
// mass and energy between cells (corners of the same node in adjacent
// cells, so no momentum transfer). Half 0 is (n1 -> M), half 1 is
// (M -> n2), both CCW for the Left element.
func (r *Remapper) faceFluxRange(lo, hi int) {
	s := r.ra.s
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
		l, rt := f.Left, f.Right
		n1, n2 := f.N1, f.N2
		x1o, y1o := s.X[n1], s.Y[n1]
		x2o, y2o := s.X[n2], s.Y[n2]
		x1n, y1n := r.xT[n1], r.yT[n1]
		x2n, y2n := r.xT[n2], r.yT[n2]
		mxo := 0.5 * (x1o + x2o)
		myo := 0.5 * (y1o + y2o)
		mxn := 0.5 * (x1n + x2n)
		myn := 0.5 * (y1n + y2n)
		for half := 0; half < 2; half++ {
			var axo, ayo, bxo, byo, axn, ayn, bxn, byn float64
			if half == 0 {
				axo, ayo, bxo, byo = x1o, y1o, mxo, myo
				axn, ayn, bxn, byn = x1n, y1n, mxn, myn
			} else {
				axo, ayo, bxo, byo = mxo, myo, x2o, y2o
				axn, ayn, bxn, byn = mxn, myn, x2n, y2n
			}
			gain := -sweptArea(axo, ayo, bxo, byo, axn, ayn, bxn, byn)
			r.fGain[2*i+half] = gain
			if gain == 0 {
				continue
			}
			donor := rt
			if gain < 0 {
				donor = l
			}
			ex := 0.25 * (axo + bxo + axn + bxn)
			ey := 0.25 * (ayo + byo + ayn + byn)
			rho := r.reconRho(donor, ex, ey, s)
			ein := r.reconEin(donor, ex, ey, s)
			mf := gain * rho
			r.fMass[2*i+half] = mf
			r.fEn[2*i+half] = mf * ein
		}
	}
}

// faceGatherRange replays each element's staged half-face fluxes in
// ascending (face, half) order — the order the serial face loop added
// them — on top of the internal sub-face deltas, keeping every corner
// slot's accumulation sequence bitwise identical to the serial remap.
func (r *Remapper) faceGatherRange(lo, hi int) {
	s := r.ra.s
	m := s.Mesh
	for e := lo; e < hi; e++ {
		var den float64
		for idx := r.efStart[e]; idx < r.efStart[e+1]; idx++ {
			i := r.efList[idx]
			f := &m.Faces[i]
			for half := 0; half < 2; half++ {
				if r.fGain[2*i+half] == 0 {
					continue
				}
				node := f.N1
				if half == 1 {
					node = f.N2
				}
				k := cornerOf(m.ElNd[e], node)
				if e == f.Left {
					r.dCMass[4*e+k] += r.fMass[2*i+half]
					den += r.fEn[2*i+half]
				} else {
					r.dCMass[4*e+k] -= r.fMass[2*i+half]
					den -= r.fEn[2*i+half]
				}
			}
		}
		r.dEnergy[e] = den
	}
}

// momGatherRange gathers each node's staged momentum fluxes over its
// element ring (the NdElList transpose, ascending by element). Within
// one element, corner 0 receives edge 0's flux before edge 3's and
// corner k>0 receives edge k-1's before edge k's — exactly the serial
// k-loop's add order — and empty slots (gain 0) are skipped just as
// the serial loop skipped them, so the sums match bit for bit.
func (r *Remapper) momGatherRange(lo, hi int) {
	s := r.ra.s
	m := s.Mesh
	for n := lo; n < hi; n++ {
		var px, py float64
		for i := m.NdElStart[n]; i < m.NdElStart[n+1]; i++ {
			e := m.NdElList[i]
			c := m.NdElCorner[i]
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

func (r *Remapper) massEnergyRange(lo, hi int) {
	s := r.ra.s
	cs := s.CornerStride()
	for e := lo; e < hi; e++ {
		oldMass := s.Mass[e]
		var newMass float64
		for k := 0; k < 4; k++ {
			s.CMass[cs*e+k] += r.dCMass[4*e+k]
			newMass += s.CMass[cs*e+k]
		}
		energy := oldMass*s.Ein[e] + r.dEnergy[e]
		s.Mass[e] = newMass
		s.Ein[e] = energy / newMass
	}
}

// stashRange turns the momentum deltas into total momenta using the
// pre-remap nodal masses, before ndMassRange rebuilds them.
func (r *Remapper) stashRange(lo, hi int) {
	s := r.ra.s
	for n := lo; n < hi; n++ {
		r.dPx[n] = s.NdMass[n]*s.U[n] + r.dPx[n]
		r.dPy[n] = s.NdMass[n]*s.V[n] + r.dPy[n]
	}
}

// ndMassRange rebuilds each nodal mass as the sum of its corner masses
// over the node's element ring (ascending, matching the serial
// element-scatter's accumulation order).
func (r *Remapper) ndMassRange(lo, hi int) {
	s := r.ra.s
	m := s.Mesh
	slots := s.NdSlots()
	for n := lo; n < hi; n++ {
		var sum float64
		for i := m.NdElStart[n]; i < m.NdElStart[n+1]; i++ {
			sum += s.CMass[slots[i]]
		}
		s.NdMass[n] = sum
	}
}

func (r *Remapper) velRange(lo, hi int) {
	s := r.ra.s
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

// volsRange computes the target-mesh volumes into volT, so tangled
// targets are detected before the coordinates are committed.
func (r *Remapper) volsRange(lo, hi int) {
	s := r.ra.s
	m := s.Mesh
	var x, y [4]float64
	for e := lo; e < hi; e++ {
		nd := &m.ElNd[e]
		for k := 0; k < 4; k++ {
			x[k] = r.xT[nd[k]]
			y[k] = r.yT[nd[k]]
		}
		r.volT[e] = geom.Area(&x, &y)
	}
}

func (r *Remapper) commitRange(lo, hi int) {
	s := r.ra.s
	for e := lo; e < hi; e++ {
		s.Vol[e] = r.volT[e]
		s.Rho[e] = s.Mass[e] / r.volT[e]
	}
}

// --- guard probes (deterministic ReduceMin bodies) ----------------------

func (r *Remapper) cmassAt(i int) float64 {
	s := r.ra.s
	return s.CMass[(i>>2)*s.CornerStride()+(i&3)] + r.dCMass[i]
}
func (r *Remapper) ndMassAt(i int) float64 { return r.ra.s.NdMass[i] }
func (r *Remapper) volAt(i int) float64    { return r.volT[i] }

// --- geometry helpers ---------------------------------------------------

// sweptArea returns the shoelace area of the quad (aOld, bOld, bNew,
// aNew) traced by segment a->b moving from old to new positions.
func sweptArea(axo, ayo, bxo, byo, axn, ayn, bxn, byn float64) float64 {
	// Shoelace over (axo,ayo) (bxo,byo) (bxn,byn) (axn,ayn).
	return 0.5 * ((bxn-axo)*(ayn-byo) - (axn-bxo)*(byn-ayo))
}

// cornerOf returns which corner of elNd holds node n.
func cornerOf(elNd [4]int, n int) int {
	for k := 0; k < 4; k++ {
		if elNd[k] == n {
			return k
		}
	}
	panic("ale: node is not a corner of element")
}

// reconRho evaluates the limited linear density reconstruction of cell
// e at point (px, py).
func (r *Remapper) reconRho(e int, px, py float64, s *hydro.State) float64 {
	cx, cy := cellCentroid(s, e)
	v := r.cRho[e] + r.gradRX[e]*(px-cx) + r.gradRY[e]*(py-cy)
	if v <= 0 {
		return r.cRho[e]
	}
	return v
}

// reconEin evaluates the limited linear energy reconstruction of cell
// e at point (px, py).
func (r *Remapper) reconEin(e int, px, py float64, s *hydro.State) float64 {
	cx, cy := cellCentroid(s, e)
	return r.cEin[e] + r.gradEX[e]*(px-cx) + r.gradEY[e]*(py-cy)
}

func cellCentroid(s *hydro.State, e int) (float64, float64) {
	nd := &s.Mesh.ElNd[e]
	return 0.25 * (s.X[nd[0]] + s.X[nd[1]] + s.X[nd[2]] + s.X[nd[3]]),
		0.25 * (s.Y[nd[0]] + s.Y[nd[1]] + s.Y[nd[2]] + s.Y[nd[3]])
}

func zero(a []float64) {
	for i := range a {
		a[i] = 0
	}
}
