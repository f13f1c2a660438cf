package exact

import "math"

// Noh evaluates the exact solution of Noh's implosion problem in dim
// dimensions (1 planar, 2 cylindrical, 3 spherical) for an ideal gas:
// initial density rho0 = 1, zero internal energy and pressure, and a
// uniform radially-inward unit velocity. A strong shock of speed
// (gamma-1)/2 reflects from the origin.
//
// BookLeaf runs the 2-D (cylindrical) case; with gamma = 5/3 the shock
// speed is 1/3 and the post-shock density is ((gamma+1)/(gamma-1))^2 = 16.
type Noh struct {
	Gamma float64
	Dim   int
}

// NewNoh returns the standard BookLeaf Noh configuration (gamma = 5/3,
// cylindrical geometry).
func NewNoh() Noh { return Noh{Gamma: 5.0 / 3.0, Dim: 2} }

// ShockRadius returns the shock position at time t.
func (n Noh) ShockRadius(t float64) float64 {
	return 0.5 * (n.Gamma - 1) * t
}

// PostShockDensity returns the constant density behind the shock.
func (n Noh) PostShockDensity() float64 {
	b := (n.Gamma + 1) / (n.Gamma - 1)
	return math.Pow(b, float64(n.Dim))
}

// postShockPressure returns the constant pressure behind the shock.
func (n Noh) postShockPressure() float64 {
	// p = rho_post * e_post * (gamma-1), e_post = u0^2/2 = 1/2.
	return 0.5 * (n.Gamma - 1) * n.PostShockDensity()
}

// Sample returns (rho, uRadial, e, p) at radius r and time t.
// Outside the shock the gas is still cold and converging but has been
// geometrically compressed: rho = rho0 (1 + t/r)^(dim-1).
func (n Noh) Sample(r, t float64) (rho, ur, e, p float64) {
	if t <= 0 {
		return 1, -1, 0, 0
	}
	if r <= n.ShockRadius(t) {
		rho = n.PostShockDensity()
		return rho, 0, 0.5, n.postShockPressure()
	}
	rho = math.Pow(1+t/r, float64(n.Dim-1))
	return rho, -1, 0, 0
}
