package hydro

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bookleaf/internal/eos"
	"bookleaf/internal/geom"
	"bookleaf/internal/mesh"
	"bookleaf/internal/par"
)

// The four hot per-element bodies as they stood before they were
// rewritten onto named scalars and inlined helpers — qforceBody with
// subzonalForce, fusedElem and the cflDiv operand, with the two geom
// functions cflDiv called — kept verbatim as the references the
// rewritten kernels must reproduce bit for bit. The only edits: they
// are functions of a State instead of methods, and the float32 shadow
// and edge-damper branches went with their options.

func refGatherCoords(s *State, e int, x, y *[4]float64) {
	nd := &s.Mesh.ElNd[e]
	for k := 0; k < 4; k++ {
		x[k] = s.X[nd[k]]
		y[k] = s.Y[nd[k]]
	}
}

func refGatherVel(s *State, e int, uArr, vArr []float64, u, v *[4]float64) {
	nd := &s.Mesh.ElNd[e]
	for k := 0; k < 4; k++ {
		u[k] = uArr[nd[k]]
		v[k] = vArr[nd[k]]
	}
}

func refQForceBody(s *State, lo, hi int, uArr, vArr []float64) {
	m := s.Mesh
	cq1, cq2 := s.Opt.CQ1, s.Opt.CQ2
	var x, y, u, v [4]float64
	var ax, ay [4]float64
	for e := lo; e < hi; e++ {
		nd := &m.ElNd[e]
		for k := 0; k < 4; k++ {
			x[k] = s.X[nd[k]]
			y[k] = s.Y[nd[k]]
			u[k] = uArr[nd[k]]
			v[k] = vArr[nd[k]]
		}
		rho := s.Rho[e]
		csq := s.Csq[e]
		cs := math.Sqrt(csq)
		base := cornerStride * e

		var qsum float64
		for k := 0; k < 4; k++ {
			kp := (k + 1) & 3
			dux := u[kp] - u[k]
			duy := v[kp] - v[k]
			dxx := x[kp] - x[k]
			dxy := y[kp] - y[k]
			if dux*dxx+duy*dxy >= 0 {
				continue
			}
			du2 := dux*dux + duy*duy
			if du2 == 0 {
				continue
			}
			du := math.Sqrt(du2)
			ko2 := (k + 2) & 3
			ko2p := (ko2 + 1) & 3
			odux := -(u[ko2p] - u[ko2])
			oduy := -(v[ko2p] - v[ko2])
			r := (odux*dux + oduy*duy) / du2
			if nb := m.ElEl[e][k]; nb >= 0 {
				kk := int(s.facing[4*e+k])
				if kk < 0 {
					panic("hydro: element adjacency not symmetric")
				}
				ko := (kk + 2) & 3
				kop := (ko + 1) & 3
				nbnd := &m.ElNd[nb]
				ndux := -(uArr[nbnd[kop]] - uArr[nbnd[ko]])
				nduy := -(vArr[nbnd[kop]] - vArr[nbnd[ko]])
				rNb := (ndux*dux + nduy*duy) / du2
				r = min(rNb, r)
			}
			psi := 0.0
			if r > 0 {
				psi = min(1.0, r)
			}
			qEdge := (1 - psi) * rho * (cq2*du2 + cq1*cs*du)
			qsum += qEdge
		}
		q := 0.25 * qsum
		s.Q[e] = q

		geom.BasisGrad(&x, &y, &ax, &ay)
		pq := s.P[e] + q
		for k := 0; k < 4; k++ {
			s.FX[base+k] = pq * ax[k]
			s.FY[base+k] = pq * ay[k]
		}
		switch s.Opt.Hourglass {
		case HGFilter:
			var hu, hv float64
			for k := 0; k < 4; k++ {
				hu += geom.HourglassVector[k] * u[k]
				hv += geom.HourglassVector[k] * v[k]
			}
			hu *= 0.25
			hv *= 0.25
			area := s.Vol[e]
			coef := s.Opt.HGKappa * rho * (cs + math.Sqrt(hu*hu+hv*hv)) * math.Sqrt(area)
			for k := 0; k < 4; k++ {
				s.FX[base+k] -= coef * hu * geom.HourglassVector[k]
				s.FY[base+k] -= coef * hv * geom.HourglassVector[k]
			}
		case HGSubzonal:
			refSubzonalForce(s, e, &x, &y, rho, csq, q)
		}
	}
}

func refSubzonalForce(s *State, e int, x, y *[4]float64, rho, csq, q float64) {
	base := cornerStride * e
	cx, cy := geom.Centroid(x, y)
	var mx, my [4]float64
	for k := 0; k < 4; k++ {
		kp := (k + 1) & 3
		mx[k] = 0.5 * (x[k] + x[kp])
		my[k] = 0.5 * (y[k] + y[kp])
	}
	svFloor := 0.01 * s.Vol[e]
	sig2 := csq + 2*q/rho
	for k := 0; k < 4; k++ {
		km := (k + 3) & 3
		svk := 0.5 * ((cx-x[k])*(my[km]-my[k]) - (mx[km]-mx[k])*(cy-y[k]))
		if svk < svFloor {
			svk = svFloor
		}
		cm := s.CMass[base+k]
		dp := s.Opt.HGSubMerit * sig2 * (cm/svk - rho)
		if dp == 0 {
			continue
		}
		kp := (k + 1) & 3
		ko := (k + 2) & 3
		bx0 := 0.5 * (my[k] - my[km])
		by0 := 0.5 * (mx[km] - mx[k])
		bx1 := 0.5 * (cy - y[k])
		by1 := 0.5 * (x[k] - cx)
		s.FX[base+k] += dp * (bx0 - 0.25*bx0)
		s.FY[base+k] += dp * (by0 - 0.25*by0)
		s.FX[base+kp] += dp * (0.5*bx1 - 0.25*bx0)
		s.FY[base+kp] += dp * (0.5*by1 - 0.25*by0)
		s.FX[base+km] += dp * (-0.5*bx1 - 0.25*bx0)
		s.FY[base+km] += dp * (-0.5*by1 - 0.25*by0)
		s.FX[base+ko] -= dp * 0.25 * bx0
		s.FY[base+ko] -= dp * 0.25 * by0
	}
}

func refFusedElem(s *State, e int, dt float64, uArr, vArr []float64, x, y *[4]float64, mats []eos.Material, reg []int32, fl *float64) {
	nd := &s.Mesh.ElNd[e]
	base := cornerStride * e
	for k := 0; k < 4; k++ {
		x[k] = s.X[nd[k]]
		y[k] = s.Y[nd[k]]
	}
	vol := geom.Area(x, y)
	s.Vol[e] = vol
	mass := s.Mass[e]
	rho := mass / vol
	s.Rho[e] = rho
	var w float64
	for k := 0; k < 4; k++ {
		w += s.FX[base+k]*uArr[nd[k]] + s.FY[base+k]*vArr[nd[k]]
	}
	ein := s.Ein0[e] - dt*w/mass
	mat := mats[reg[e]]
	if ein < 0 && mat.EnergyDependent() {
		*fl += -ein * mass
		ein = 0
	}
	s.Ein[e] = ein
	s.P[e] = mat.Pressure(rho, ein)
	s.Csq[e] = mat.SoundSpeed2(rho, ein)
}

func refCflDiv(s *State) func(e int) (float64, float64) {
	return func(e int) (float64, float64) {
		var x, y, u, v [4]float64
		refGatherCoords(s, e, &x, &y)
		refGatherVel(s, e, s.U, s.V, &u, &v)
		l := refMinLength(&x, &y)
		sig2 := s.Csq[e] + 2*s.Q[e]/s.Rho[e]
		cfl := math.Inf(1)
		if sig2 > 0 {
			cfl = s.Opt.CFL * l / math.Sqrt(sig2)
		}
		d := math.Abs(refDivergence(&x, &y, &u, &v))
		div := math.Inf(1)
		if d != 0 {
			div = s.Opt.DivSafety / d
		}
		return cfl, div
	}
}

func refMinLength(x, y *[4]float64) float64 {
	dx := 0.5*(x[2]+x[3]) - 0.5*(x[0]+x[1])
	dy := 0.5*(y[2]+y[3]) - 0.5*(y[0]+y[1])
	d2 := dx*dx + dy*dy
	dx = 0.5*(x[3]+x[0]) - 0.5*(x[1]+x[2])
	dy = 0.5*(y[3]+y[0]) - 0.5*(y[1]+y[2])
	if e2 := dx*dx + dy*dy; e2 < d2 {
		d2 = e2
	}
	l := math.Sqrt(d2)
	var longest2 float64
	for k := 0; k < 4; k++ {
		kp := (k + 1) & 3
		ex := x[kp] - x[k]
		ey := y[kp] - y[k]
		if s2 := ex*ex + ey*ey; s2 > longest2 {
			longest2 = s2
		}
	}
	if longest := math.Sqrt(longest2); longest > 0 {
		if thin := geom.Area(x, y) / longest; thin > 0 && thin < l {
			l = thin
		}
	}
	return l
}

func refDivergence(x, y *[4]float64, u, v *[4]float64) float64 {
	a := geom.Area(x, y)
	if a <= 0 {
		return 0
	}
	var ax, ay [4]float64
	geom.BasisGrad(x, y, &ax, &ay)
	var dAdt float64
	for k := 0; k < 4; k++ {
		dAdt += ax[k]*u[k] + ay[k]*v[k]
	}
	return dAdt / a
}

// refClone returns a State sharing s's inputs and owning fresh copies
// of everything the reference bodies write, so reference and rewritten
// kernels run on the same operands and their outputs can be compared.
func refClone(s *State) *State {
	r := *s
	cp := func(a []float64) []float64 { return append([]float64(nil), a...) }
	r.Q, r.Vol, r.Rho, r.Ein, r.P, r.Csq = cp(s.Q), cp(s.Vol), cp(s.Rho), cp(s.Ein), cp(s.P), cp(s.Csq)
	fxy := cp(s.FX)
	r.FX, r.FY = fxy, fxy[4:]
	return &r
}

// refState builds a randomly distorted, three-material state on an
// n×n box that holds every case the rewritten bodies branch on:
// boundary edges (the box walls, ElEl < 0), compressive and expanding
// edges side by side (random velocities), a patch at rest (Δu² = 0,
// zero divergence), a corner crushed through the sub-zonal floor,
// elements with c² = 0 and q = 0 (dp = 0 in the sub-zonal force,
// sig2 = 0 in the CFL condition) and with c² < 0 (sig2 < 0), cold
// elements the energy floor catches, and Tait and void regions that
// take the EOS fallback beside the ideal gas that takes the fast path.
func refState(t testing.TB, n int, hg HourglassControl, seed int64) *State {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, err := mesh.Rect(mesh.RectSpec{NX: n, NY: n, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: mesh.DefaultWalls()})
	if err != nil {
		t.Fatal(err)
	}
	h := 1 / float64(n)
	for nd := range m.X {
		if m.BCs[nd] == 0 {
			m.X[nd] += 0.25 * h * (2*rng.Float64() - 1)
			m.Y[nd] += 0.25 * h * (2*rng.Float64() - 1)
		}
	}
	gas, _ := eos.NewIdealGas(1.4)
	water, _ := eos.NewTait(1.0, 10, 7)
	for e := range m.Region {
		m.Region[e] = int32(e % 3)
	}
	opt := DefaultOptions(gas, water, eos.Void{})
	opt.Hourglass = hg
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	for e := range rho {
		rho[e] = 0.5 + rng.Float64()
		ein[e] = 0.1 + rng.Float64()
	}
	s, err := NewState(m, opt, rho, ein)
	if err != nil {
		t.Fatal(err)
	}
	for nd := range s.U {
		s.U[nd] = 0.3 * (2*rng.Float64() - 1)
		s.V[nd] = 0.3 * (2*rng.Float64() - 1)
	}
	// A patch at rest: elements 0, 1 and their row neighbours.
	for _, e := range []int{0, 1, n, n + 1} {
		for _, nd := range m.ElNd[e] {
			s.U[nd], s.V[nd] = 0, 0
		}
	}
	// Crush corner 0 of an interior element: pull its node most of the
	// way to the opposite one, far past the 1 % sub-zone floor.
	crushed := (n/2)*n + n/2
	a, c := m.ElNd[crushed][0], m.ElNd[crushed][2]
	s.X[a] += 0.97 * (s.X[c] - s.X[a])
	s.Y[a] += 0.97 * (s.Y[c] - s.Y[a])
	for e := 0; e < m.NEl; e++ {
		s.Q[e] = 0.1 * rng.Float64()
		switch e % 7 {
		case 3:
			s.Csq[e], s.Q[e] = 0, 0
		case 5:
			s.Csq[e], s.Q[e] = -1, 0
		}
	}
	s.Csq[0], s.Csq[1] = 0, 0 // at rest: q = 0 too, so dp = 0
	copy(s.U0, s.U)
	copy(s.V0, s.V)
	copy(s.X0, s.X)
	copy(s.Y0, s.Y)
	copy(s.Ein0, s.Ein)
	for e := 0; e < m.NEl; e += 4 {
		s.Ein0[e] = 1e-9 // cold: the energy update overshoots zero
	}
	return s
}

func bitsDiffer(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func compareFields(t *testing.T, what string, got, want *State, names ...string) {
	t.Helper()
	fields := map[string][2][]float64{
		"Q": {got.Q, want.Q}, "FX": {got.FX, want.FX}, "FY": {got.FY, want.FY},
		"Vol": {got.Vol, want.Vol}, "Rho": {got.Rho, want.Rho}, "Ein": {got.Ein, want.Ein},
		"P": {got.P, want.P}, "Csq": {got.Csq, want.Csq},
	}
	for _, name := range names {
		f := fields[name]
		if i := bitsDiffer(f[0], f[1]); i >= 0 {
			t.Errorf("%s: %s[%d] = %x (%v), reference %x (%v)", what, name, i,
				math.Float64bits(f[0][i]), f[0][i], math.Float64bits(f[1][i]), f[1][i])
		}
	}
}

// TestKernelsMatchReference holds the rewritten q+force sweep (fused
// and as the getq/getforce pair), the fused update and the timestep
// operand to the reference bodies, bitwise, on every output, on two
// distortions of the box. The odd box and the 7-thread pool put chunk
// boundaries where no even split does, so the per-chunk floor partials
// meet uneven chunks.
func TestKernelsMatchReference(t *testing.T) {
	for _, hg := range []HourglassControl{HGNone, HGFilter, HGSubzonal} {
		for _, seed := range []int64{42, 43} {
			for _, n := range []int{12, 13} {
				for _, threads := range []int{1, 2, 4, 7} {
					t.Run(fmt.Sprintf("%v/seed=%d/%dx%d/threads=%d", hg, seed, n, n, threads), func(t *testing.T) {
						s := refState(t, n, hg, seed)
						s.Pool = par.New(threads)
						defer s.Pool.Close()
						nel := s.Mesh.NOwnEl

						// q + force, on the crushed geometry and stale Vol.
						want := refClone(s)
						refQForceBody(want, 0, nel, s.U0, s.V0)
						s.GetQForce(0, nel, s.U0, s.V0)
						compareFields(t, "GetQForce", s, want, "Q", "FX", "FY")
						clear(s.Q)
						clear(s.FX)
						clear(s.FY)
						s.GetQ(0, nel) // reads U, V — equal to U0, V0 here
						s.GetForce(0, nel, s.U0, s.V0)
						compareFields(t, "GetQ+GetForce", s, want, "Q", "FX", "FY")

						// Timestep operand, element by element and reduced.
						ref := refCflDiv(s)
						for e := 0; e < nel; e++ {
							gc, gd := s.kb.cflDiv(e)
							wc, wd := ref(e)
							if math.Float64bits(gc) != math.Float64bits(wc) || math.Float64bits(gd) != math.Float64bits(wd) {
								t.Fatalf("cflDiv(%d) = (%v, %v), reference (%v, %v)", e, gc, gd, wc, wd)
							}
						}
						gc, gci, gd, gdi := s.Pool.ReduceMin2(nel, s.kb.cflDiv)
						wc, wci, wd, wdi := s.Pool.ReduceMin2(nel, ref)
						if gc != wc || gci != wci || gd != wd || gdi != wdi {
							t.Errorf("ReduceMin2 = (%v,%d,%v,%d), reference (%v,%d,%v,%d)", gc, gci, gd, gdi, wc, wci, wd, wdi)
						}

						// Fused update, floor total included. The node move is
						// the sweep's own; the reference runs after it, on the
						// coordinates both then share.
						const dt = 1e-3
						gotFloor, err := s.FusedUpdate(dt, s.U0, s.V0, 0, nel)
						if err != nil {
							t.Fatal(err)
						}
						var x, y [4]float64
						var wantFloor float64
						for e := 0; e < nel; e++ {
							refFusedElem(want, e, dt, s.U0, s.V0, &x, &y, s.Opt.Materials, s.Mesh.Region, &wantFloor)
						}
						if wantFloor == 0 {
							t.Fatal("the energy floor never fired: the case is not covered")
						}
						compareFields(t, "FusedUpdate", s, want, "Vol", "Rho", "Ein", "P", "Csq")
						if threads == 1 && gotFloor != wantFloor {
							t.Errorf("floor total %x, reference %x", math.Float64bits(gotFloor), math.Float64bits(wantFloor))
						}
						if d := math.Abs(gotFloor - wantFloor); d > 1e-12*wantFloor {
							t.Errorf("floor total %v, reference %v", gotFloor, wantFloor)
						}
					})
				}
			}
		}
	}
}

// TestLimiterReuse is the one invariant the once-per-step limiter adds:
// a sweep that reuses the stored limiter on moved coordinates must equal
// a full evaluation there — also on the edges the first sweep found not
// compressive and the second does, which it has to evaluate itself.
func TestLimiterReuse(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			s := refState(t, 12, HGSubzonal, 7)
			s.Pool = par.New(threads)
			defer s.Pool.Close()
			nel := s.Mesh.NOwnEl
			s.GetQForce(0, nel, s.U0, s.V0)
			first := append([]float64(nil), s.psi...)

			// The half step moves the nodes; the velocities stay.
			rng := rand.New(rand.NewSource(8))
			for nd := range s.X {
				s.X[nd] += 0.02 * (2*rng.Float64() - 1)
				s.Y[nd] += 0.02 * (2*rng.Float64() - 1)
			}
			want := refClone(s)
			refQForceBody(want, 0, nel, s.U0, s.V0)
			s.getQForce(0, nel, s.U0, s.V0, true)
			compareFields(t, "reusing sweep", s, want, "Q", "FX", "FY")
			var fellBack, reused int
			for e := 0; e < nel; e++ {
				for k := 0; k < 4; k++ {
					switch i := cornerStride*e + k; {
					case first[i] == noPsi && s.psi[i] != noPsi:
						fellBack++
					case first[i] != noPsi:
						reused++
					}
				}
			}
			if fellBack == 0 || reused == 0 {
				t.Fatalf("%d edges fell back to evaluating, %d had a stored limiter: the case is not covered", fellBack, reused)
			}

			// And it does read what is stored: with every limiter at
			// 1 the viscosity vanishes.
			for e := 0; e < nel; e++ {
				for k := 0; k < 4; k++ {
					s.psi[cornerStride*e+k] = 1
				}
			}
			s.getQForce(0, nel, s.U0, s.V0, true)
			for e := 0; e < nel; e++ {
				if s.Csq[e] >= 0 && s.Q[e] != 0 { // c² < 0 makes q NaN at any ψ
					t.Fatalf("Q[%d] = %v with every stored limiter at 1", e, s.Q[e])
				}
			}
			// A standalone sweep never trusts it.
			s.GetQForce(0, nel, s.U0, s.V0)
			compareFields(t, "full sweep over a poisoned limiter", s, want, "Q", "FX", "FY")
		})
	}
}

// TestStaleLimiterNeverRead: the limiter is step scratch that no
// Memento carries, so a rolled-back state holds one from its future and
// a replacement rank's fresh state holds zeros — a valid-looking ψ. Both
// must continue on the unperturbed trajectory, which they do because
// every step's predictor rewrites the limiter before its corrector
// reads it; a stale read here would inject NaN.
func TestStaleLimiterNeverRead(t *testing.T) {
	build := func() *State {
		m := boxMesh(t, 12, 12)
		s := uniformState(t, m, 1, 0.1, HGSubzonal)
		for n := range s.U {
			s.U[n] = -0.1 * (s.X[n] - 0.5)
			s.V[n] = -0.1 * (s.Y[n] - 0.5)
		}
		return s
	}
	steps := func(s *State, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.Step(nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	straight, rolled := build(), build()
	steps(straight, 3)
	steps(rolled, 3)
	var mem Memento
	rolled.Save(&mem)
	steps(rolled, 3)
	rolled.Load(&mem)
	for e := 0; e < rolled.Mesh.NOwnEl; e++ {
		for k := 0; k < 4; k++ {
			rolled.psi[cornerStride*e+k] = math.NaN()
		}
	}
	replaced := build()
	replaced.Load(&mem)
	steps(straight, 3)
	steps(rolled, 3)
	steps(replaced, 3)
	for name, s := range map[string]*State{"rolled back": rolled, "replaced": replaced} {
		for field, pair := range map[string][2][]float64{
			"X": {s.X, straight.X}, "Y": {s.Y, straight.Y}, "U": {s.U, straight.U}, "V": {s.V, straight.V},
			"Rho": {s.Rho, straight.Rho}, "Ein": {s.Ein, straight.Ein}, "P": {s.P, straight.P}, "Q": {s.Q, straight.Q},
		} {
			if i := bitsDiffer(pair[0], pair[1]); i >= 0 {
				t.Errorf("%s: %s[%d] = %v, unperturbed %v", name, field, i, pair[0][i], pair[1][i])
			}
		}
	}
}
