// Package eos implements BookLeaf's equations of state. The paper lists
// three EoS options — ideal gas, Tait and JWL — plus a void option; each
// closes Euler's equations by supplying pressure and squared sound speed
// as functions of density and specific internal energy.
//
// Conventions: density rho in mass/volume, specific internal energy e in
// energy/mass. Sound speed squared is the full thermodynamic derivative
//
//	c² = (∂P/∂ρ)|e + (P/ρ²)(∂P/∂e)|ρ
//
// evaluated analytically for every material. Pressures below the cutoff
// Pcut are clamped to zero and c² is floored at CCut² so degenerate
// states (voids, cold gas) cannot produce an unbounded timestep.
package eos

import (
	"fmt"
	"math"
)

// Material is one material's equation of state.
type Material interface {
	// Pressure returns P(rho, e).
	Pressure(rho, e float64) float64
	// SoundSpeed2 returns c²(rho, e), always > 0.
	SoundSpeed2(rho, e float64) float64
	// Name identifies the EoS form for reporting.
	Name() string
	// EnergyDependent reports whether the pressure depends on the
	// specific internal energy. Barotropic forms (Tait, void) return
	// false; for them a negative tracked energy is harmless elastic
	// bookkeeping and must not be floored by the hydro step.
	EnergyDependent() bool
}

// Cutoffs used by all materials; these mirror BookLeaf's pcut/ccut
// input-deck defaults.
const (
	// Pcut is the pressure cutoff: |P| below this is treated as zero.
	Pcut = 1e-8
	// CCut is the sound-speed floor.
	CCut = 1e-8
)

func clampPressure(p float64) float64 {
	if math.Abs(p) < Pcut {
		return 0
	}
	return p
}

func floorC2(c2 float64) float64 {
	if c2 < CCut*CCut || math.IsNaN(c2) {
		return CCut * CCut
	}
	return c2
}

// IdealGas is the gamma-law gas P = (gamma-1) rho e.
type IdealGas struct {
	Gamma float64
}

// NewIdealGas returns a gamma-law gas; gamma must exceed 1.
func NewIdealGas(gamma float64) (IdealGas, error) {
	if gamma <= 1 {
		return IdealGas{}, fmt.Errorf("eos: ideal gas gamma = %v, must be > 1", gamma)
	}
	return IdealGas{Gamma: gamma}, nil
}

func (g IdealGas) Name() string { return "ideal gas" }

// EnergyDependent reports that gamma-law pressure scales with energy.
func (g IdealGas) EnergyDependent() bool { return true }

func (g IdealGas) Pressure(rho, e float64) float64 {
	return clampPressure((g.Gamma - 1) * rho * e)
}

func (g IdealGas) SoundSpeed2(rho, e float64) float64 {
	// c² = gamma (gamma-1) e, equivalently gamma P / rho.
	return floorC2(g.Gamma * (g.Gamma - 1) * e)
}

// Tait is the stiffened barotropic Tait form used for nearly
// incompressible liquids:
//
//	P = B [ (rho/rho0)^N - 1 ]
//
// Pressure is independent of e, as in BookLeaf's Tait option.
type Tait struct {
	Rho0 float64 // reference density
	B    float64 // bulk modulus scale
	N    float64 // stiffness exponent (~7 for water)
}

// NewTait validates and returns a Tait material.
func NewTait(rho0, b, n float64) (Tait, error) {
	if rho0 <= 0 || b <= 0 || n <= 0 {
		return Tait{}, fmt.Errorf("eos: tait parameters rho0=%v B=%v N=%v must be positive", rho0, b, n)
	}
	return Tait{Rho0: rho0, B: b, N: n}, nil
}

func (t Tait) Name() string { return "tait" }

// EnergyDependent reports the barotropic nature of the Tait form.
func (t Tait) EnergyDependent() bool { return false }

func (t Tait) Pressure(rho, e float64) float64 {
	if rho <= 0 {
		return 0
	}
	return clampPressure(t.B * (math.Pow(rho/t.Rho0, t.N) - 1))
}

func (t Tait) SoundSpeed2(rho, e float64) float64 {
	if rho <= 0 {
		return floorC2(0)
	}
	// dP/drho = B N / rho0 * (rho/rho0)^(N-1)
	return floorC2(t.B * t.N / t.Rho0 * math.Pow(rho/t.Rho0, t.N-1))
}

// JWL is the Jones-Wilkins-Lee detonation-product EoS:
//
//	P = A (1 - w v0 / (R1 v)) exp(-R1 v / v0)
//	  + B (1 - w v0 / (R2 v)) exp(-R2 v / v0)
//	  + w rho e
//
// with v = 1/rho the specific volume and v0 = 1/rho0. The constants A,
// B (pressure units), R1, R2, w are the usual explosive fit parameters.
type JWL struct {
	A, B   float64
	R1, R2 float64
	W      float64 // Gruneisen-like omega
	Rho0   float64 // reference (unreacted) density
}

// LX14 returns JWL constants for a representative plastic-bonded
// explosive (in CGS-derived code units scaled to unit reference
// density). No deck selects it; the hydro tests step it.
func LX14() JWL {
	return JWL{A: 8.545, B: 0.205, R1: 4.6, R2: 1.35, W: 0.38, Rho0: 1.0}
}

func (j JWL) Name() string { return "jwl" }

// EnergyDependent reports the w*rho*e term of the JWL form.
func (j JWL) EnergyDependent() bool { return true }

func (j JWL) Pressure(rho, e float64) float64 {
	if rho <= 0 {
		return 0
	}
	x := j.Rho0 / rho // = v/v0
	p := j.A*(1-j.W/(j.R1*x))*math.Exp(-j.R1*x) +
		j.B*(1-j.W/(j.R2*x))*math.Exp(-j.R2*x) +
		j.W*rho*e
	return clampPressure(p)
}

func (j JWL) SoundSpeed2(rho, e float64) float64 {
	if rho <= 0 {
		return floorC2(0)
	}
	x := j.Rho0 / rho
	// dP/drho at constant e: with x = rho0/rho, dx/drho = -x/rho.
	// d/dx [A(1 - w/(R1 x)) exp(-R1 x)] =
	//   A exp(-R1 x) [ w/(R1 x²) - R1 (1 - w/(R1 x)) ]
	dPdx := j.A*math.Exp(-j.R1*x)*(j.W/(j.R1*x*x)-j.R1*(1-j.W/(j.R1*x))) +
		j.B*math.Exp(-j.R2*x)*(j.W/(j.R2*x*x)-j.R2*(1-j.W/(j.R2*x)))
	dPdrho := dPdx*(-x/rho) + j.W*e
	dPde := j.W * rho
	p := j.Pressure(rho, e)
	return floorC2(dPdrho + p/(rho*rho)*dPde)
}

// Void is the void "material": zero pressure, floor sound speed. Cells
// flagged void exert no force and never control the timestep.
type Void struct{}

func (Void) Name() string { return "void" }

// EnergyDependent reports that void pressure is identically zero.
func (Void) EnergyDependent() bool { return false }

func (Void) Pressure(rho, e float64) float64 { return 0 }

func (Void) SoundSpeed2(rho, e float64) float64 { return CCut * CCut }

// compile-time interface checks
var (
	_ Material = IdealGas{}
	_ Material = Tait{}
	_ Material = JWL{}
	_ Material = Void{}
)
