package eos

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestIdealGasPressure(t *testing.T) {
	g, err := NewIdealGas(1.4)
	if err != nil {
		t.Fatal(err)
	}
	// P = (gamma-1) rho e = 0.4 * 1 * 2.5 = 1
	if p := g.Pressure(1, 2.5); !almost(p, 1, 1e-14) {
		t.Fatalf("P = %v, want 1", p)
	}
}

func TestIdealGasSoundSpeedMatchesGammaPOverRho(t *testing.T) {
	g, _ := NewIdealGas(5.0 / 3.0)
	rho, e := 2.3, 1.7
	p := g.Pressure(rho, e)
	want := g.Gamma * p / rho
	if c2 := g.SoundSpeed2(rho, e); !almost(c2, want, 1e-12) {
		t.Fatalf("c2 = %v, want %v", c2, want)
	}
}

func TestIdealGasRejectsBadGamma(t *testing.T) {
	for _, gamma := range []float64{1.0, 0.9, -2} {
		if _, err := NewIdealGas(gamma); err == nil {
			t.Fatalf("gamma=%v accepted", gamma)
		}
	}
}

func TestIdealGasColdGasFloors(t *testing.T) {
	g, _ := NewIdealGas(1.4)
	if p := g.Pressure(1, 0); p != 0 {
		t.Fatalf("cold gas pressure = %v, want 0", p)
	}
	if c2 := g.SoundSpeed2(1, 0); c2 < CCut*CCut {
		t.Fatalf("cold gas c2 = %v below floor", c2)
	}
}

func TestPressureCutoff(t *testing.T) {
	g, _ := NewIdealGas(1.4)
	if p := g.Pressure(1, 1e-12); p != 0 {
		t.Fatalf("tiny pressure %v not clamped to zero", p)
	}
}

func TestTaitReferenceStateHasZeroPressure(t *testing.T) {
	w, err := NewTait(1.0, 3.31e3, 7.15)
	if err != nil {
		t.Fatal(err)
	}
	if p := w.Pressure(1.0, 123.0); p != 0 {
		t.Fatalf("P(rho0) = %v, want 0", p)
	}
}

func TestTaitCompressionAndTension(t *testing.T) {
	w, _ := NewTait(1.0, 3.31e3, 7.15)
	if p := w.Pressure(1.01, 0); p <= 0 {
		t.Fatalf("compressed Tait P = %v, want > 0", p)
	}
	if p := w.Pressure(0.99, 0); p >= 0 {
		t.Fatalf("expanded Tait P = %v, want < 0", p)
	}
}

func TestTaitSoundSpeedIsdPdRho(t *testing.T) {
	w, _ := NewTait(1.0, 3.31e3, 7.15)
	rho := 1.02
	h := 1e-7
	numeric := (w.Pressure(rho+h, 0) - w.Pressure(rho-h, 0)) / (2 * h)
	if c2 := w.SoundSpeed2(rho, 0); !almost(c2, numeric, 1e-5) {
		t.Fatalf("c2 = %v, finite-diff dP/drho = %v", c2, numeric)
	}
}

func TestTaitIndependentOfEnergy(t *testing.T) {
	w, _ := NewTait(1.0, 3.31e3, 7.15)
	if w.Pressure(1.1, 0) != w.Pressure(1.1, 99) {
		t.Fatal("Tait pressure depends on energy")
	}
}

func TestTaitRejectsBadParams(t *testing.T) {
	if _, err := NewTait(0, 1, 7); err == nil {
		t.Fatal("rho0=0 accepted")
	}
	if _, err := NewTait(1, -1, 7); err == nil {
		t.Fatal("B<0 accepted")
	}
	if _, err := NewTait(1, 1, 0); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestJWLReducesToOmegaGasAtLowDensity(t *testing.T) {
	j := LX14()
	// As rho -> small, the exponential terms vanish and P -> w rho e.
	rho, e := 0.01, 5.0
	want := j.W * rho * e
	if p := j.Pressure(rho, e); !almost(p, want, 1e-3) {
		t.Fatalf("dilute JWL P = %v, want ~%v", p, want)
	}
}

func TestJWLSoundSpeedMatchesFiniteDifference(t *testing.T) {
	j := LX14()
	rho, e := 1.2, 4.0
	h := 1e-6
	dPdrho := (j.Pressure(rho+h, e) - j.Pressure(rho-h, e)) / (2 * h)
	dPde := (j.Pressure(rho, e+h) - j.Pressure(rho, e-h)) / (2 * h)
	want := dPdrho + j.Pressure(rho, e)/(rho*rho)*dPde
	if c2 := j.SoundSpeed2(rho, e); !almost(c2, want, 1e-4) {
		t.Fatalf("c2 = %v, thermodynamic identity gives %v", c2, want)
	}
}

func TestJWLPositiveSoundSpeedOverRange(t *testing.T) {
	j := LX14()
	for _, rho := range []float64{0.1, 0.5, 1.0, 1.5, 2.0} {
		for _, e := range []float64{0, 1, 5, 10} {
			if c2 := j.SoundSpeed2(rho, e); c2 <= 0 || math.IsNaN(c2) {
				t.Fatalf("c2(%v,%v) = %v", rho, e, c2)
			}
		}
	}
}

func TestVoid(t *testing.T) {
	v := Void{}
	if p := v.Pressure(3, 9); p != 0 {
		t.Fatalf("void P = %v", p)
	}
	if c2 := v.SoundSpeed2(3, 9); c2 != CCut*CCut {
		t.Fatalf("void c2 = %v, want floor", c2)
	}
}

func TestZeroDensityIsSafeEverywhere(t *testing.T) {
	mats := []Material{mustIdeal(1.4), mustTait(), LX14(), Void{}}
	for _, m := range mats {
		if p := m.Pressure(0, 1); math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("%s: P(0,1) = %v", m.Name(), p)
		}
		if c2 := m.SoundSpeed2(0, 1); c2 <= 0 || math.IsNaN(c2) {
			t.Fatalf("%s: c2(0,1) = %v", m.Name(), c2)
		}
	}
}

func TestPropertySoundSpeedAlwaysPositiveFinite(t *testing.T) {
	mats := []Material{mustIdeal(1.4), mustIdeal(5.0 / 3.0), mustTait(), LX14(), Void{}}
	f := func(rhoRaw, eRaw float64) bool {
		rho := math.Abs(math.Mod(rhoRaw, 100))
		e := math.Abs(math.Mod(eRaw, 100))
		for _, m := range mats {
			c2 := m.SoundSpeed2(rho, e)
			if c2 <= 0 || math.IsNaN(c2) || math.IsInf(c2, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIdealGasPressureLinearInEnergy(t *testing.T) {
	g := mustIdeal(1.4)
	f := func(eRaw float64) bool {
		e := 1 + math.Abs(math.Mod(eRaw, 50))
		return almost(g.Pressure(2, 2*e), 2*g.Pressure(2, e), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNames(t *testing.T) {
	cases := map[string]Material{
		"ideal gas": mustIdeal(1.4),
		"tait":      mustTait(),
		"jwl":       LX14(),
		"void":      Void{},
	}
	for want, m := range cases {
		if m.Name() != want {
			t.Fatalf("Name() = %q, want %q", m.Name(), want)
		}
	}
}

func mustIdeal(g float64) IdealGas {
	m, err := NewIdealGas(g)
	if err != nil {
		panic(err)
	}
	return m
}

func mustTait() Tait {
	m, err := NewTait(1.0, 3.31e3, 7.15)
	if err != nil {
		panic(err)
	}
	return m
}
