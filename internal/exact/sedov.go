package exact

import (
	"fmt"
	"math"
)

// Sedov is the self-similar Sedov-Taylor point-blast solution for an
// ideal gas in Dim dimensions (2 = cylindrical, BookLeaf's case; 3 =
// spherical). Construction integrates the similarity ODEs inward from
// the strong-shock Rankine-Hugoniot state and evaluates the energy
// integral to obtain the similarity constant alpha, defined by
//
//	R(t) = (E t² / (alpha rho0))^(1/(Dim+2))
//
// with E the total blast energy (per unit length in 2-D). For the
// classic cylindrical gamma = 1.4 case alpha ≈ 0.984.
type Sedov struct {
	Gamma float64
	Dim   int
	E     float64 // blast energy
	Rho0  float64 // ambient density

	alpha float64
	// Interior similarity profiles, tabulated on descending lambda.
	lam, v, g, z []float64
}

// similarity ODE right-hand side at (V, G, Z): returns d/dx of V, lnG,
// and Z, where x = ln(lambda). Solves the 3x3 linear system from the
// self-similar Euler equations.
func sedovRHS(gamma, m float64, j int, V, G, Z float64) (dV, dlnG, dZ float64, ok bool) {
	// Rows: [a11 a12 a13 | b1] for unknowns (dV, dlnG, dZ).
	a := [3][3]float64{
		{1, V - 1, 0},
		{m * (V - 1), m / gamma * Z, m / gamma},
		{0, m * (V - 1) * (1 - gamma), m * (V - 1) / Z},
	}
	b := [3]float64{
		-float64(j) * V,
		-V*(m*V-1) - 2*m/gamma*Z,
		-2 * (m*V - 1),
	}
	// Gaussian elimination with partial pivoting.
	idx := [3]int{0, 1, 2}
	for col := 0; col < 3; col++ {
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[idx[r]][col]) > math.Abs(a[idx[p]][col]) {
				p = r
			}
		}
		idx[col], idx[p] = idx[p], idx[col]
		piv := a[idx[col]][col]
		if piv == 0 {
			return 0, 0, 0, false
		}
		for r := col + 1; r < 3; r++ {
			f := a[idx[r]][col] / piv
			for c := col; c < 3; c++ {
				a[idx[r]][c] -= f * a[idx[col]][c]
			}
			b[idx[r]] -= f * b[idx[col]]
		}
	}
	var sol [3]float64
	for col := 2; col >= 0; col-- {
		s := b[idx[col]]
		for c := col + 1; c < 3; c++ {
			s -= a[idx[col]][c] * sol[c]
		}
		sol[col] = s / a[idx[col]][col]
	}
	return sol[0], sol[1], sol[2], true
}

// NewSedov integrates the similarity solution. dim must be 2 or 3 and
// gamma in (1, 3]; e and rho0 positive.
func NewSedov(gamma float64, dim int, e, rho0 float64) (*Sedov, error) {
	if dim != 2 && dim != 3 {
		return nil, fmt.Errorf("exact: sedov dim = %d, want 2 or 3", dim)
	}
	if gamma <= 1 || gamma > 3 {
		return nil, fmt.Errorf("exact: sedov gamma = %v out of (1,3]", gamma)
	}
	if e <= 0 || rho0 <= 0 {
		return nil, fmt.Errorf("exact: sedov needs positive E and rho0, got %v, %v", e, rho0)
	}
	s := &Sedov{Gamma: gamma, Dim: dim, E: e, Rho0: rho0}

	j := dim
	m := 2.0 / float64(j+2)
	// Strong-shock starting state at lambda = 1.
	V := 2 / (gamma + 1)
	lnG := math.Log((gamma + 1) / (gamma - 1))
	Z := 2 * gamma * (gamma - 1) / ((gamma + 1) * (gamma + 1))

	const (
		xMin  = -16.0
		steps = 32000
	)
	h := xMin / steps // negative step

	integrand := func(V, lnG, Z, x float64) float64 {
		lam := math.Exp(x)
		G := math.Exp(lnG)
		return G * (V*V/2 + Z/(gamma*(gamma-1))) * math.Pow(lam, float64(j+2))
	}

	s.lam = append(s.lam, 1)
	s.v = append(s.v, V)
	s.g = append(s.g, math.Exp(lnG))
	s.z = append(s.z, Z)

	var integral float64
	x := 0.0
	prevF := integrand(V, lnG, Z, x)
	for i := 0; i < steps; i++ {
		// RK4 step of size h (negative).
		k1v, k1g, k1z, ok1 := sedovRHS(gamma, m, j, V, math.Exp(lnG), Z)
		k2v, k2g, k2z, ok2 := sedovRHS(gamma, m, j, V+h/2*k1v, math.Exp(lnG+h/2*k1g), Z+h/2*k1z)
		k3v, k3g, k3z, ok3 := sedovRHS(gamma, m, j, V+h/2*k2v, math.Exp(lnG+h/2*k2g), Z+h/2*k2z)
		k4v, k4g, k4z, ok4 := sedovRHS(gamma, m, j, V+h*k3v, math.Exp(lnG+h*k3g), Z+h*k3z)
		if !(ok1 && ok2 && ok3 && ok4) {
			return nil, fmt.Errorf("exact: sedov ODE singular at ln(lambda)=%v", x)
		}
		V += h / 6 * (k1v + 2*k2v + 2*k3v + k4v)
		lnG += h / 6 * (k1g + 2*k2g + 2*k3g + k4g)
		Z += h / 6 * (k1z + 2*k2z + 2*k3z + k4z)
		x += h
		f := integrand(V, lnG, Z, x)
		// Trapezoid in x (note h < 0, integral over decreasing x).
		integral += -h * 0.5 * (prevF + f)
		prevF = f
		if i%40 == 0 {
			s.lam = append(s.lam, math.Exp(x))
			s.v = append(s.v, V)
			s.g = append(s.g, math.Exp(lnG))
			s.z = append(s.z, Z)
		}
	}

	var kGeom float64
	switch j {
	case 2:
		kGeom = 2 * math.Pi
	case 3:
		kGeom = 4 * math.Pi
	}
	s.alpha = m * m * kGeom * integral
	if s.alpha <= 0 || math.IsNaN(s.alpha) {
		return nil, fmt.Errorf("exact: sedov alpha integration failed (alpha=%v)", s.alpha)
	}
	return s, nil
}

// Alpha returns the similarity constant.
func (s *Sedov) Alpha() float64 { return s.alpha }

// ShockRadius returns the blast-wave radius at time t.
func (s *Sedov) ShockRadius(t float64) float64 {
	return math.Pow(s.E*t*t/(s.alpha*s.Rho0), 1/float64(s.Dim+2))
}

// PostShockDensity returns the density immediately behind the shock
// (the strong-shock limit, independent of time).
func (s *Sedov) PostShockDensity() float64 {
	return s.Rho0 * (s.Gamma + 1) / (s.Gamma - 1)
}

// Sample returns (rho, uRadial, p) at radius r, time t > 0.
func (s *Sedov) Sample(r, t float64) (rho, ur, p float64) {
	R := s.ShockRadius(t)
	if r >= R {
		return s.Rho0, 0, 0
	}
	lam := r / R
	// Binary search on descending-lambda table.
	lo, hi := 0, len(s.lam)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s.lam[mid] > lam {
			lo = mid
		} else {
			hi = mid
		}
	}
	t0, t1 := s.lam[lo], s.lam[hi]
	w := 0.0
	if t0 != t1 {
		w = (lam - t0) / (t1 - t0)
	}
	V := s.v[lo] + w*(s.v[hi]-s.v[lo])
	G := s.g[lo] + w*(s.g[hi]-s.g[lo])
	Z := s.z[lo] + w*(s.z[hi]-s.z[lo])
	mfac := 2 / float64(s.Dim+2) * r / t
	rho = s.Rho0 * G
	ur = mfac * V
	p = rho * mfac * mfac * Z / s.Gamma
	return rho, ur, p
}
