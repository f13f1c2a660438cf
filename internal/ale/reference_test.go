package ale

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bookleaf/internal/eos"
	"bookleaf/internal/geom"
	"bookleaf/internal/hydro"
	"bookleaf/internal/mesh"
	"bookleaf/internal/par"
	"bookleaf/internal/partition"
)

// refRemap is the remap as it stood before each quantity was formed
// once: the phase bodies below are the pre-rewrite ones, verbatim but
// for the receiver type, the ref prefix on two free functions and the
// coverage counters, run serially in their original order. It is the
// oracle TestRemapMatchesReference holds the Remapper to, bit for bit.
type refRemap struct {
	Opt Options

	xT, yT            []float64
	gradRX, gradRY    []float64
	gradEX, gradEY    []float64
	cRho, cEin        []float64
	dCMass            []float64
	dEnergy           []float64
	dPx, dPy          []float64
	adjStart, adjList []int
	efStart, efList   []int32
	eGain, ePx, ePy   []float64
	fGain, fMass, fEn []float64
	volT              []float64

	ra struct {
		s           *hydro.State
		base        int
		phi, gx, gy []float64
	}

	// cover counts the special cases the bodies met, so the test can
	// insist its meshes reach every one of them.
	cover struct {
		fewNb, singular, flatSample, emptyEdge, emptyHalf, wallFace, fallback, fixed int
	}
}

func newRefRemap(opt Options, s *hydro.State) *refRemap {
	m := s.Mesh
	m.BuildFaces() // the oracle may be the mesh's first remapper
	nel, nnd := m.NEl, m.NNd
	r := &refRemap{
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
		adj := globalOrderAdjacency(m)
		r.adjStart = make([]int, nnd+1)
		for n, nb := range adj {
			r.adjStart[n+1] = r.adjStart[n] + len(nb)
			r.adjList = append(r.adjList, nb...)
		}
	}
	return r
}

// apply is the pre-rewrite Apply on one thread with blocking hooks:
// the same phases in the same order, guards where they used to sit
// (nodal mass after the masses are rewritten, volume after the
// velocities).
func (r *refRemap) apply(s *hydro.State, hooks *Hooks) error {
	m := s.Mesh
	nel, nnd := m.NEl, m.NNd
	r.ra.s = s
	r.ra.base = 0
	exchangeUV := func() {
		if hooks != nil && hooks.ExchangeVelocities != nil {
			hooks.ExchangeVelocities(s.U, s.V)
		}
	}

	switch r.Opt.Mode {
	case Eulerian:
		copy(r.xT, m.X)
		copy(r.yT, m.Y)
	case Smoothed:
		own := m.NOwnNd
		r.smoothRange(0, own)
		if hooks != nil && hooks.ExchangeNodeFields != nil {
			hooks.ExchangeNodeFields(r.xT, r.yT)
		} else {
			r.ra.base = own
			r.pinRange(0, nnd-own)
			r.ra.base = 0
		}
	}

	copy(r.cRho, s.Rho)
	copy(r.cEin, s.Ein)
	cellExch := hooks != nil && hooks.ExchangeCellFields != nil
	gn := nel
	if cellExch {
		gn = m.NOwnEl
	}
	if r.Opt.FirstOrder {
		clear(r.gradRX)
		clear(r.gradRY)
		clear(r.gradEX)
		clear(r.gradEY)
	} else {
		r.ra.phi, r.ra.gx, r.ra.gy = r.cRho, r.gradRX, r.gradRY
		r.gradRange(0, gn)
		r.ra.phi, r.ra.gx, r.ra.gy = r.cEin, r.gradEX, r.gradEY
		r.gradRange(0, gn)
	}
	if cellExch {
		hooks.ExchangeCellFields(r.cRho, r.cEin, r.gradRX, r.gradRY, r.gradEX, r.gradEY)
	}

	r.subFacesRange(0, nel)
	r.faceFluxRange(0, len(m.Faces))
	r.faceGatherRange(0, nel)
	r.momGatherRange(0, nnd)

	cs := s.CornerStride()
	for i := 0; i < 4*nel; i++ {
		if v := s.CMass[(i>>2)*cs+(i&3)] + r.dCMass[i]; v <= 0 {
			exchangeUV()
			return &ErrRemap{Element: i / 4, Corner: i & 3, Mass: v}
		}
	}
	r.massEnergyRange(0, nel)
	r.stashRange(0, nnd)
	r.ndMassRange(0, nnd)
	for n := 0; n < nnd; n++ {
		if s.NdMass[n] <= 0 {
			exchangeUV()
			return &ErrRemap{Element: -1, Corner: n, Mass: s.NdMass[n]}
		}
	}
	velN := nnd
	if hooks != nil && hooks.ExchangeVelocities != nil {
		velN = m.NOwnNd
	}
	r.velRange(0, velN)
	r.volsRange(0, nel)
	for e := 0; e < nel; e++ {
		if v := r.volT[e]; v <= 0 {
			exchangeUV()
			return &ErrRemap{Element: e, Corner: -1, Mass: v}
		}
	}
	copy(s.X, r.xT)
	copy(s.Y, r.yT)
	r.commitRange(0, nel)
	s.GetPC(0, m.NOwnEl)
	exchangeUV()
	return nil
}

// --- the pre-rewrite phase bodies ---------------------------------------

func (r *refRemap) smoothRange(lo, hi int) {
	s := r.ra.s
	for n := lo; n < hi; n++ {
		r.smoothNode(s, n)
	}
}

func (r *refRemap) smoothNode(s *hydro.State, n int) {
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

func (r *refRemap) pinRange(lo, hi int) {
	s := r.ra.s
	for n := lo + r.ra.base; n < hi+r.ra.base; n++ {
		r.xT[n] = s.X[n]
		r.yT[n] = s.Y[n]
	}
}

// gradRange fills the bound (gx, gy) with least-squares cell gradients
// of the bound phi over face neighbours, limited Barth-Jespersen style
// so reconstructed face-centroid values stay within the neighbour
// min/max (the monotonicity-enforcing limiter the paper cites via van
// Leer).
func (r *refRemap) gradRange(lo, hi int) {
	s := r.ra.s
	m := s.Mesh
	phi, gx, gy := r.ra.phi, r.ra.gx, r.ra.gy
	for e := lo; e < hi; e++ {
		cx, cy := refCellCentroid(s, e)
		// Least squares normal equations.
		var sxx, sxy, syy, sxp, syp float64
		min, max := phi[e], phi[e]
		nNb := 0
		for k := 0; k < 4; k++ {
			nb := int(m.ElEl[e][k])
			if nb < 0 {
				continue
			}
			nNb++
			nx, ny := refCellCentroid(s, nb)
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
			if nNb < 2 {
				r.cover.fewNb++
			} else {
				r.cover.singular++
			}
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
				r.cover.flatSample++
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

func (r *refRemap) subFacesRange(lo, hi int) {
	s := r.ra.s
	for e := lo + r.ra.base; e < hi+r.ra.base; e++ {
		r.subFaceEl(s, e)
	}
}

// subFaceEl stages element e's internal sub-face fluxes (edge midpoint
// -> centroid), which move mass and momentum between the corners of one
// cell. The corner-mass deltas are fully element-local, so they are
// accumulated here in the serial loop's edge order and assigned; the
// momentum fluxes are staged per edge for momGatherRange to replay.
func (r *refRemap) subFaceEl(s *hydro.State, e int) {
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
			r.cover.emptyEdge++
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
func (r *refRemap) faceFluxRange(lo, hi int) {
	s := r.ra.s
	m := s.Mesh
	for i := lo; i < hi; i++ {
		f := &m.Faces[i]
		if f.Right < 0 {
			// Wall: no flux. Clear the gains so the gather skips the
			// stale flux entries.
			r.fGain[2*i] = 0
			r.fGain[2*i+1] = 0
			r.cover.wallFace++
			continue
		}
		l, rt := int(f.Left), int(f.Right)
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
				r.cover.emptyHalf++
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
func (r *refRemap) faceGatherRange(lo, hi int) {
	s := r.ra.s
	m := s.Mesh
	for e := lo; e < hi; e++ {
		var den float64
		for idx := r.efStart[e]; idx < r.efStart[e+1]; idx++ {
			i := int(r.efList[idx])
			f := &m.Faces[i]
			for half := 0; half < 2; half++ {
				if r.fGain[2*i+half] == 0 {
					continue
				}
				node := f.N1
				if half == 1 {
					node = f.N2
				}
				k := refCornerOf(m.ElNd[e], node)
				if e == int(f.Left) {
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
// element ring (the NdCorner transpose, ascending by element). Within
// one element, corner 0 receives edge 0's flux before edge 3's and
// corner k>0 receives edge k-1's before edge k's — exactly the serial
// k-loop's add order — and empty slots (gain 0) are skipped just as
// the serial loop skipped them, so the sums match bit for bit.
func (r *refRemap) momGatherRange(lo, hi int) {
	s := r.ra.s
	m := s.Mesh
	for n := lo; n < hi; n++ {
		var px, py float64
		for i := m.NdElStart[n]; i < m.NdElStart[n+1]; i++ {
			e, c := int(m.NdCorner[i]>>2), int(m.NdCorner[i]&3)
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

func (r *refRemap) massEnergyRange(lo, hi int) {
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
func (r *refRemap) stashRange(lo, hi int) {
	s := r.ra.s
	for n := lo; n < hi; n++ {
		r.dPx[n] = s.NdMass[n]*s.U[n] + r.dPx[n]
		r.dPy[n] = s.NdMass[n]*s.V[n] + r.dPy[n]
	}
}

// ndMassRange rebuilds each nodal mass as the sum of its corner masses
// over the node's element ring (ascending, matching the serial
// element-scatter's accumulation order).
func (r *refRemap) ndMassRange(lo, hi int) {
	s := r.ra.s
	m := s.Mesh
	cs := int32(s.CornerStride())
	for n := lo; n < hi; n++ {
		var sum float64
		for i := m.NdElStart[n]; i < m.NdElStart[n+1]; i++ {
			c := m.NdCorner[i]
			sum += s.CMass[(c>>2)*cs+c&3]
		}
		s.NdMass[n] = sum
	}
}

func (r *refRemap) velRange(lo, hi int) {
	s := r.ra.s
	m := s.Mesh
	for n := lo; n < hi; n++ {
		u := r.dPx[n] / s.NdMass[n]
		v := r.dPy[n] / s.NdMass[n]
		bc := m.BCs[n]
		if bc&mesh.FixU != 0 {
			r.cover.fixed++
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
func (r *refRemap) volsRange(lo, hi int) {
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

func (r *refRemap) commitRange(lo, hi int) {
	s := r.ra.s
	for e := lo; e < hi; e++ {
		s.Vol[e] = r.volT[e]
		s.Rho[e] = s.Mass[e] / r.volT[e]
	}
}

// refCornerOf returns which corner of elNd holds node n.
func refCornerOf(elNd [4]int32, n int32) int {
	for k := 0; k < 4; k++ {
		if elNd[k] == n {
			return k
		}
	}
	panic("ale: node is not a corner of element")
}

// reconRho evaluates the limited linear density reconstruction of cell
// e at point (px, py).
func (r *refRemap) reconRho(e int, px, py float64, s *hydro.State) float64 {
	cx, cy := refCellCentroid(s, e)
	v := r.cRho[e] + r.gradRX[e]*(px-cx) + r.gradRY[e]*(py-cy)
	if v <= 0 {
		r.cover.fallback++
		return r.cRho[e]
	}
	return v
}

// reconEin evaluates the limited linear energy reconstruction of cell
// e at point (px, py).
func (r *refRemap) reconEin(e int, px, py float64, s *hydro.State) float64 {
	cx, cy := refCellCentroid(s, e)
	return r.cEin[e] + r.gradEX[e]*(px-cx) + r.gradEY[e]*(py-cy)
}

func refCellCentroid(s *hydro.State, e int) (float64, float64) {
	nd := &s.Mesh.ElNd[e]
	return 0.25 * (s.X[nd[0]] + s.X[nd[1]] + s.X[nd[2]] + s.X[nd[3]]),
		0.25 * (s.Y[nd[0]] + s.Y[nd[1]] + s.Y[nd[2]] + s.Y[nd[3]])
}

// --- the comparison -----------------------------------------------------

// refState builds a two-material box of nx x ny cells whose state
// reaches the remap's special cases: an exactly constant patch (flat
// limiter samples), diagonal stripes of near-vacuum, dense and denser
// cells (the dense cell keeps a limited gradient that still goes
// negative towards the vertex its two near-vacuum neighbours share: the
// reconstruction's cell-mean fallback), a column of unmoved nodes
// and a band moved in x only (empty flux slots), random velocities
// against FixU/FixV walls. A strip (nx == 1) moves its nodes along y
// only, so every centroid keeps x = 0.5 and the least-squares matrix is
// singular; its end cells have one neighbour. Same arguments, same
// state, bit for bit.
func refState(t testing.TB, nx, ny int) *hydro.State {
	t.Helper()
	m, err := mesh.Rect(mesh.RectSpec{NX: nx, NY: ny, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: mesh.DefaultWalls(),
		RegionOf: func(cx, cy float64) int {
			if cx < 0.5 {
				return 0
			}
			return 1
		}})
	if err != nil {
		t.Fatal(err)
	}
	g0, _ := eos.NewIdealGas(1.4)
	g1, _ := eos.NewIdealGas(5.0 / 3.0)
	opt := hydro.DefaultOptions(g0)
	opt.Materials = []eos.Material{g0, g1}
	rng := rand.New(rand.NewSource(int64(1000*nx + ny)))
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	var x, y [4]float64
	for e := range rho {
		m.GatherCoords(e, &x, &y)
		cx, cy := geom.Centroid(&x, &y)
		switch {
		case cx < 0.3:
			rho[e], ein[e] = 1, 2
		case cx > 0.6:
			stripe := (int(cx*float64(nx)) + int(cy*float64(ny))) % 3
			rho[e], ein[e] = [3]float64{1e-7, 1, 3}[stripe], 1+rng.Float64()
		default:
			rho[e], ein[e] = 0.5+rng.Float64(), 1+2*rng.Float64()
		}
	}
	s, err := hydro.NewState(m, opt, rho, ein)
	if err != nil {
		t.Fatal(err)
	}
	hx, hy := 0.22/float64(nx), 0.22/float64(ny)
	for n := 0; n < m.NNd; n++ {
		s.U[n], s.V[n] = rng.NormFloat64(), rng.NormFloat64()
		dx, dy := hx*(2*rng.Float64()-1), hy*(2*rng.Float64()-1)
		switch {
		case nx == 1:
			if m.BCs[n]&mesh.FixV == 0 {
				s.Y[n] += dy
			}
		case m.BCs[n] != mesh.BCNone || s.X[n] < 0.2:
		case s.X[n] < 0.45:
			s.X[n] += dx
		default:
			s.X[n] += dx
			s.Y[n] += dy
		}
	}
	rebuildMasses(s)
	return s
}

// sameBits fails the test at the first entry where two arrays differ in
// any bit (so a signed zero or a NaN payload counts).
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sameRemap compares every scratch and state array of a remap against
// the reference's, in pipeline order so the first phase to stray is the
// one named.
func sameRemap(t *testing.T, r *Remapper, s *hydro.State, ref *refRemap, sRef *hydro.State) {
	t.Helper()
	for _, a := range []struct {
		name      string
		got, want []float64
	}{
		{"xT", r.xT, ref.xT}, {"yT", r.yT, ref.yT},
		{"cRho", r.cRho, ref.cRho}, {"cEin", r.cEin, ref.cEin},
		{"gradRX", r.gradRX, ref.gradRX}, {"gradRY", r.gradRY, ref.gradRY},
		{"gradEX", r.gradEX, ref.gradEX}, {"gradEY", r.gradEY, ref.gradEY},
		{"eGain", r.eGain, ref.eGain}, {"ePx", r.ePx, ref.ePx}, {"ePy", r.ePy, ref.ePy},
		{"fGain", r.fGain, ref.fGain}, {"fMass", r.fMass, ref.fMass}, {"fEn", r.fEn, ref.fEn},
		{"dCMass", r.dCMass, ref.dCMass}, {"dEnergy", r.dEnergy, ref.dEnergy},
		{"dPx", r.dPx, ref.dPx}, {"dPy", r.dPy, ref.dPy}, {"volT", r.volT, ref.volT},
		{"CMass", s.CMass, sRef.CMass}, {"Mass", s.Mass, sRef.Mass}, {"Ein", s.Ein, sRef.Ein},
		{"Rho", s.Rho, sRef.Rho}, {"Vol", s.Vol, sRef.Vol}, {"P", s.P, sRef.P}, {"Csq", s.Csq, sRef.Csq},
		{"NdMass", s.NdMass, sRef.NdMass}, {"U", s.U, sRef.U}, {"V", s.V, sRef.V},
		{"X", s.X, sRef.X}, {"Y", s.Y, sRef.Y},
	} {
		sameBits(t, a.name, a.got, a.want)
	}
}

// ownerFill stands in for a rank's peers: every exchange fills the
// local ghost entries from an undecomposed run of the same remap, which
// is what the owning ranks would send.
type ownerFill struct {
	lm     *mesh.Mesh
	cell   [6][]float64 // cRho, cEin, gradRX, gradRY, gradEX, gradEY
	xT, yT []float64
	u, v   []float64
	calls  []string
}

func (o *ownerFill) cells(fields ...[]float64) {
	o.calls = append(o.calls, "cell")
	for i, f := range fields {
		for e := o.lm.NOwnEl; e < o.lm.NEl; e++ {
			f[e] = o.cell[i][o.lm.GlobalEl[e]]
		}
	}
}

func (o *ownerFill) nodes(name string, gx, gy, x, y []float64) {
	o.calls = append(o.calls, name)
	for n := o.lm.NOwnNd; n < o.lm.NNd; n++ {
		x[n], y[n] = gx[o.lm.GlobalNd[n]], gy[o.lm.GlobalNd[n]]
	}
}

func (o *ownerFill) hooks() *Hooks {
	return &Hooks{
		ExchangeCellFields: o.cells,
		ExchangeNodeFields: func(x, y []float64) { o.nodes("node", o.xT, o.yT, x, y) },
		ExchangeVelocities: func(u, v []float64) { o.nodes("vel", o.u, o.v, u, v) },
	}
}

// localState cuts rank sub's state out of the undecomposed pre-remap
// state g: fields by global id, ghosts included, as a fresh halo
// exchange would leave them.
func localState(t testing.TB, g *hydro.State, lm *mesh.Mesh) *hydro.State {
	t.Helper()
	rho := make([]float64, lm.NEl)
	ein := make([]float64, lm.NEl)
	for e := range rho {
		rho[e], ein[e] = g.Rho[lm.GlobalEl[e]], g.Ein[lm.GlobalEl[e]]
	}
	s, err := hydro.NewState(lm, g.Opt, rho, ein)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < lm.NNd; n++ {
		gn := lm.GlobalNd[n]
		s.X[n], s.Y[n], s.U[n], s.V[n] = g.X[gn], g.Y[gn], g.U[gn], g.V[gn]
	}
	rebuildMasses(s)
	return s
}

// TestRemapMatchesReference holds the remap to the pre-rewrite bodies
// bit for bit, in every scratch array and every state array, across
// mode x order x threads, on the whole mesh and on two- and four-rank
// splits driven through the exchange hooks.
func TestRemapMatchesReference(t *testing.T) {
	withPool := func(s *hydro.State, threads int) func() {
		if threads == 1 {
			return func() {}
		}
		s.Pool = par.New(threads)
		return s.Pool.Close
	}
	for _, mode := range []Options{{Mode: Eulerian, SmoothWeight: 0.5}, {Mode: Smoothed, SmoothWeight: 0.7}} {
		for _, firstOrder := range []bool{false, true} {
			opt := mode
			opt.FirstOrder = firstOrder
			for _, shape := range [][2]int{{12, 10}, {1, 12}} {
				nx, ny := shape[0], shape[1]
				tag := fmt.Sprintf("%v/firstorder=%v/%dx%d", opt.Mode, firstOrder, nx, ny)

				// The undecomposed reference run, which also plays
				// the owning ranks of the split below.
				g0 := refState(t, nx, ny)
				gRef := refState(t, nx, ny)
				ref := newRefRemap(opt, gRef)
				if err := ref.apply(gRef, nil); err != nil {
					t.Fatalf("%s: reference: %v", tag, err)
				}
				c := ref.cover
				if !firstOrder {
					if nx == 1 && (c.fewNb == 0 || c.singular == 0) {
						t.Fatalf("%s: strip misses a gradient bail-out: %+v", tag, c)
					}
					if nx > 1 && (c.flatSample == 0 || c.fallback == 0) {
						t.Fatalf("%s: box misses a limiter or reconstruction case: %+v", tag, c)
					}
				}
				if c.wallFace == 0 || c.fixed == 0 || (nx > 1 && (c.emptyEdge == 0 || c.emptyHalf == 0)) {
					t.Fatalf("%s: mesh misses a flux or boundary case: %+v", tag, c)
				}

				for _, threads := range []int{1, 2, 4, 7} {
					t.Run(fmt.Sprintf("%s/threads=%d", tag, threads), func(t *testing.T) {
						s := refState(t, nx, ny)
						defer withPool(s, threads)()
						r := NewRemapper(opt, s)
						if err := r.Apply(s, nil, nil); err != nil {
							t.Fatal(err)
						}
						sameRemap(t, r, s, ref, gRef)
					})
				}
				if nx == 1 {
					continue
				}

				// Two ranks meet along one cut; four put a rank beside
				// two neighbours and a corner ghost.
				for _, nranks := range []int{2, 4} {
					part, err := partition.RCBMesh(g0.Mesh, nranks)
					if err != nil {
						t.Fatal(err)
					}
					subs, err := partition.Split(g0.Mesh, part, nranks)
					if err != nil {
						t.Fatal(err)
					}
					split := ""
					if nranks != 2 { // the two-rank rows keep their names
						split = fmt.Sprintf("/ranks=%d", nranks)
					}
					for _, sub := range subs {
						fill := func() *ownerFill {
							return &ownerFill{lm: sub.M,
								cell: [6][]float64{ref.cRho, ref.cEin, ref.gradRX, ref.gradRY, ref.gradEX, ref.gradEY},
								xT:   ref.xT, yT: ref.yT, u: gRef.U, v: gRef.V}
						}
						sRef := localState(t, g0, sub.M)
						lref := newRefRemap(opt, sRef)
						oRef := fill()
						if err := lref.apply(sRef, oRef.hooks()); err != nil {
							t.Fatalf("%s rank %d: reference: %v", tag, sub.Rank, err)
						}
						for _, threads := range []int{1, 2, 4, 7} {
							t.Run(fmt.Sprintf("%s%s/rank=%d/threads=%d", tag, split, sub.Rank, threads), func(t *testing.T) {
								s := localState(t, g0, sub.M)
								defer withPool(s, threads)()
								o := fill()
								r := NewRemapper(opt, s)
								if err := r.Apply(s, nil, o.hooks()); err != nil {
									t.Fatal(err)
								}
								sameRemap(t, r, s, lref, sRef)
								if fmt.Sprint(o.calls) != fmt.Sprint(oRef.calls) {
									t.Fatalf("exchange order %v, reference %v", o.calls, oRef.calls)
								}
							})
						}
					}
				}
			}
		}
	}
}
