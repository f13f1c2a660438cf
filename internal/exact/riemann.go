// Package exact provides analytic reference solutions for BookLeaf's
// four test problems: an exact ideal-gas Riemann solver (Sod's shock
// tube), the exact cylindrical Noh solution, the Sedov-Taylor
// self-similar blast wave (via numerical integration of the similarity
// ODEs), and the 1-D piston relations behind Saltzmann's problem. The
// integration tests compare simulation output against these.
package exact

import (
	"fmt"
	"math"
)

// GasState is a primitive-variable 1-D gas state.
type GasState struct {
	Rho float64 // density
	U   float64 // velocity
	P   float64 // pressure
}

// RiemannProblem is an ideal-gas Riemann problem: two half-infinite
// states separated by a diaphragm at x = X0 removed at t = 0.
type RiemannProblem struct {
	Left, Right GasState
	Gamma       float64
	X0          float64
}

// Sod returns the classic Sod shock tube (diaphragm at x0).
func Sod(x0 float64) RiemannProblem {
	return RiemannProblem{
		Left:  GasState{Rho: 1, U: 0, P: 1},
		Right: GasState{Rho: 0.125, U: 0, P: 0.1},
		Gamma: 1.4,
		X0:    x0,
	}
}

// riemannFK is the Toro "f_K" function and its derivative: the velocity
// change across the left or right wave as a function of star pressure.
func riemannFK(p float64, s GasState, gamma float64) (f, df float64) {
	a := math.Sqrt(gamma * s.P / s.Rho)
	if p > s.P {
		// Shock.
		ak := 2 / ((gamma + 1) * s.Rho)
		bk := (gamma - 1) / (gamma + 1) * s.P
		q := math.Sqrt(ak / (p + bk))
		f = (p - s.P) * q
		df = q * (1 - (p-s.P)/(2*(p+bk)))
		return f, df
	}
	// Rarefaction.
	pr := p / s.P
	f = 2 * a / (gamma - 1) * (math.Pow(pr, (gamma-1)/(2*gamma)) - 1)
	df = 1 / (s.Rho * a) * math.Pow(pr, -(gamma+1)/(2*gamma))
	return f, df
}

// solve computes the star-region pressure and velocity by Newton
// iteration (Toro's exact solver). It returns an error for states that
// would generate vacuum.
func (rp RiemannProblem) solve() (pStar, uStar float64, err error) {
	g := rp.Gamma
	l, r := rp.Left, rp.Right
	al := math.Sqrt(g * l.P / l.Rho)
	ar := math.Sqrt(g * r.P / r.Rho)
	if 2*al/(g-1)+2*ar/(g-1) <= r.U-l.U {
		return 0, 0, fmt.Errorf("exact: riemann problem generates vacuum")
	}
	// Initial guess: two-rarefaction approximation.
	z := (g - 1) / (2 * g)
	p := math.Pow((al+ar-0.5*(g-1)*(r.U-l.U))/(al/math.Pow(l.P, z)+ar/math.Pow(r.P, z)), 1/z)
	if p < 1e-12 {
		p = 1e-12
	}
	for iter := 0; iter < 100; iter++ {
		fl, dfl := riemannFK(p, l, g)
		fr, dfr := riemannFK(p, r, g)
		f := fl + fr + (r.U - l.U)
		df := dfl + dfr
		dp := f / df
		pNew := p - dp
		if pNew <= 0 {
			pNew = 0.5 * p
		}
		if math.Abs(pNew-p) <= 1e-14*math.Max(1, p) {
			p = pNew
			break
		}
		p = pNew
	}
	fl, _ := riemannFK(p, l, g)
	fr, _ := riemannFK(p, r, g)
	u := 0.5*(l.U+r.U) + 0.5*(fr-fl)
	return p, u, nil
}

// Sample returns the exact solution state at position x and time t > 0.
func (rp RiemannProblem) Sample(x, t float64) (GasState, error) {
	pStar, uStar, err := rp.solve()
	if err != nil {
		return GasState{}, err
	}
	if t <= 0 {
		if x < rp.X0 {
			return rp.Left, nil
		}
		return rp.Right, nil
	}
	s := (x - rp.X0) / t
	return rp.sampleWave(s, pStar, uStar), nil
}

// sampleWave evaluates the self-similar solution at speed s = x/t.
func (rp RiemannProblem) sampleWave(s, pStar, uStar float64) GasState {
	g := rp.Gamma
	if s <= uStar {
		// Left of contact.
		l := rp.Left
		al := math.Sqrt(g * l.P / l.Rho)
		if pStar > l.P {
			// Left shock.
			sl := l.U - al*math.Sqrt((g+1)/(2*g)*pStar/l.P+(g-1)/(2*g))
			if s <= sl {
				return l
			}
			rho := l.Rho * (pStar/l.P + (g-1)/(g+1)) / ((g-1)/(g+1)*pStar/l.P + 1)
			return GasState{Rho: rho, U: uStar, P: pStar}
		}
		// Left rarefaction.
		shl := l.U - al
		aStar := al * math.Pow(pStar/l.P, (g-1)/(2*g))
		stl := uStar - aStar
		switch {
		case s <= shl:
			return l
		case s >= stl:
			rho := l.Rho * math.Pow(pStar/l.P, 1/g)
			return GasState{Rho: rho, U: uStar, P: pStar}
		default:
			// Inside the fan.
			u := 2 / (g + 1) * (al + (g-1)/2*l.U + s)
			a := 2 / (g + 1) * (al + (g-1)/2*(l.U-s))
			rho := l.Rho * math.Pow(a/al, 2/(g-1))
			p := l.P * math.Pow(a/al, 2*g/(g-1))
			return GasState{Rho: rho, U: u, P: p}
		}
	}
	// Right of contact.
	r := rp.Right
	ar := math.Sqrt(g * r.P / r.Rho)
	if pStar > r.P {
		// Right shock.
		sr := r.U + ar*math.Sqrt((g+1)/(2*g)*pStar/r.P+(g-1)/(2*g))
		if s >= sr {
			return r
		}
		rho := r.Rho * (pStar/r.P + (g-1)/(g+1)) / ((g-1)/(g+1)*pStar/r.P + 1)
		return GasState{Rho: rho, U: uStar, P: pStar}
	}
	// Right rarefaction.
	shr := r.U + ar
	aStar := ar * math.Pow(pStar/r.P, (g-1)/(2*g))
	str := uStar + aStar
	switch {
	case s >= shr:
		return r
	case s <= str:
		rho := r.Rho * math.Pow(pStar/r.P, 1/g)
		return GasState{Rho: rho, U: uStar, P: pStar}
	default:
		u := 2 / (g + 1) * (-ar + (g-1)/2*r.U + s)
		a := 2 / (g + 1) * (ar - (g-1)/2*(r.U-s))
		rho := r.Rho * math.Pow(a/ar, 2/(g-1))
		p := r.P * math.Pow(a/ar, 2*g/(g-1))
		return GasState{Rho: rho, U: u, P: p}
	}
}

// ShockPosition returns the position of the right-running shock of the
// Sod problem at time t (only meaningful when the right wave is a
// shock, as in Sod's tube).
func (rp RiemannProblem) ShockPosition(t float64) (float64, error) {
	pStar, _, err := rp.solve()
	if err != nil {
		return 0, err
	}
	g := rp.Gamma
	r := rp.Right
	if pStar <= r.P {
		return 0, fmt.Errorf("exact: right wave is not a shock")
	}
	ar := math.Sqrt(g * r.P / r.Rho)
	sr := r.U + ar*math.Sqrt((g+1)/(2*g)*pStar/r.P+(g-1)/(2*g))
	return rp.X0 + sr*t, nil
}
