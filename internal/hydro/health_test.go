package hydro

import (
	"errors"
	"math"
	"testing"

	"bookleaf/internal/eos"
	"bookleaf/internal/mesh"
)

func healthyState(t *testing.T) *State {
	t.Helper()
	g, err := eos.NewIdealGas(1.4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mesh.Rect(mesh.RectSpec{NX: 4, NY: 4, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: mesh.DefaultWalls()})
	if err != nil {
		t.Fatal(err)
	}
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	for e := range rho {
		rho[e], ein[e] = 1, 1
	}
	s, err := NewState(m, DefaultOptions(g, g), rho, ein)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCheckFiniteCleanState(t *testing.T) {
	s := healthyState(t)
	if err := s.CheckFinite(); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}
}

func TestCheckFiniteFlagsNaNAndInf(t *testing.T) {
	s := healthyState(t)
	s.Rho[3] = math.NaN()
	err := s.CheckFinite()
	var nf *ErrNonFinite
	if !errors.As(err, &nf) || nf.Field != "rho" || nf.Index != 3 {
		t.Fatalf("NaN rho not flagged: %v", err)
	}
	s.Rho[3] = 1
	s.U[5] = math.Inf(1)
	err = s.CheckFinite()
	if !errors.As(err, &nf) || nf.Field != "u" || nf.Index != 5 {
		t.Fatalf("Inf velocity not flagged: %v", err)
	}
	if !Retryable(err) {
		t.Fatal("non-finite error not classified retryable")
	}
}

func TestRetryableClassification(t *testing.T) {
	if !Retryable(&ErrDtCollapse{Dt: 1e-14, Element: 2}) {
		t.Fatal("dt collapse not retryable")
	}
	if !Retryable(&ErrTangled{Element: 1, Volume: -1}) {
		t.Fatal("tangling not retryable")
	}
	if Retryable(errors.New("disk on fire")) {
		t.Fatal("arbitrary error retryable")
	}
}

// Save/Load must round-trip the evolving state bit-exactly: run, save,
// run further, load, re-run — the replay must match the original.
func TestMementoRollbackIsBitExact(t *testing.T) {
	s := healthyState(t)
	// Give it something to do: a converging velocity field.
	for n := 0; n < s.Mesh.NNd; n++ {
		s.U[n] = -0.1 * s.X[n]
		s.V[n] = -0.1 * s.Y[n]
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	var m Memento
	if m.Valid() {
		t.Fatal("empty memento claims validity")
	}
	s.Save(&m)

	record := func() []float64 {
		out := append([]float64(nil), s.Rho...)
		out = append(out, s.U...)
		out = append(out, s.X...)
		out = append(out, s.Time, s.DtPrev, float64(s.StepCount))
		return out
	}
	for i := 0; i < 7; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	first := record()

	s.Load(&m)
	if s.StepCount != 5 {
		t.Fatalf("rollback step count = %d, want 5", s.StepCount)
	}
	for i := 0; i < 7; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	second := record()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at slot %d: %v vs %v", i, first[i], second[i])
		}
	}
}

// evolved returns a small state a few steps into a converging flow.
func evolved(t *testing.T) *State {
	t.Helper()
	g, err := eos.NewIdealGas(1.4)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(g)
	m := boxMesh(t, 6, 5)
	rho := make([]float64, m.NEl)
	ein := make([]float64, m.NEl)
	for e := range rho {
		rho[e], ein[e] = 1+0.01*float64(e), 1
	}
	s, err := NewState(m, opt, rho, ein)
	if err != nil {
		t.Fatal(err)
	}
	for n := range s.U {
		s.U[n] = -0.1 * s.X[n]
		s.V[n] = -0.1 * s.Y[n]
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestLagrangianMementoHoldsNoMasses: nothing in a Lagrangian run
// writes a mass, so the memento of one holds none — and restores
// everything that does move, the clock included, leaving the masses
// exactly as it finds them.
func TestLagrangianMementoHoldsNoMasses(t *testing.T) {
	s := evolved(t)
	var mem Memento
	s.Save(&mem)
	// The memento is the evolving prefix of each slab and nothing else.
	if el, nd := s.el.prefix(rowsUpTo(element, evolving)), s.nd.prefix(rowsUpTo(node, evolving)); mem.cMass != nil || len(mem.el) != len(el) || len(mem.nd) != len(nd) {
		t.Fatalf("a memento without Masses holds %d/%d slab words and %d corner masses, want %d/%d and none",
			len(mem.el), len(mem.nd), len(mem.cMass), len(el), len(nd))
	}
	moving := func() map[string][]float64 {
		return map[string][]float64{
			"X": s.X, "Y": s.Y, "U": s.U, "V": s.V, "Rho": s.Rho, "Ein": s.Ein,
			"P": s.P, "Q": s.Q, "Csq": s.Csq, "Vol": s.Vol,
		}
	}
	want := map[string][]float64{}
	for name, f := range moving() {
		want[name] = append([]float64(nil), f...)
	}
	clock := [5]float64{s.Time, s.DtPrev, float64(s.StepCount), s.ExternalWork, s.FloorEnergy}

	for _, f := range moving() {
		for i := range f {
			f[i] = -7
		}
	}
	for _, f := range [][]float64{s.Mass, s.CMass, s.NdMass} {
		for i := range f {
			f[i] = 42
		}
	}
	s.Time, s.DtPrev, s.StepCount, s.ExternalWork, s.FloorEnergy = 9, 9, 9, 9, 9
	s.Load(&mem)

	for name, f := range moving() {
		if i := bitsDiffer(f, want[name]); i >= 0 {
			t.Errorf("%s[%d] = %v after Load, saved %v", name, i, f[i], want[name][i])
		}
	}
	if got := [5]float64{s.Time, s.DtPrev, float64(s.StepCount), s.ExternalWork, s.FloorEnergy}; got != clock {
		t.Errorf("clock %v after Load, saved %v", got, clock)
	}
	for name, f := range map[string][]float64{"Mass": s.Mass, "CMass": s.CMass, "NdMass": s.NdMass} {
		for i := range f {
			if f[i] != 42 {
				t.Fatalf("Load wrote %s[%d] = %v from a memento that carries no masses", name, i, f[i])
			}
		}
	}
}

// TestMassesMementoRestoresFreshState is the replaceRank shape: a
// memento that carries masses, loaded into a freshly built state that
// no remapper ever touched, must hand it the remapped masses — Load
// obeys the memento, never the state.
func TestMassesMementoRestoresFreshState(t *testing.T) {
	old := evolved(t)
	// What a remap does to the masses, as far as a memento can tell.
	for e := range old.Mass {
		old.Mass[e] *= 1 + 0.03*float64(e%5)
		for k := 0; k < 4; k++ {
			old.CMass[cornerStride*e+k] *= 1 + 0.01*float64(k+e%3)
		}
	}
	for n := range old.NdMass {
		old.NdMass[n] *= 1 - 0.02*float64(n%4)
	}
	// The limiter scratch shares the CMass record; the memento must not.
	for e := range old.Mass {
		for k := 0; k < 4; k++ {
			old.psi[cornerStride*e+k] = -3
		}
	}
	mem := Memento{Masses: true}
	old.Save(&mem)
	if len(mem.cMass) != 4*old.Mesh.NEl {
		t.Fatalf("memento holds %d corner masses, want the %d CMass halves", len(mem.cMass), 4*old.Mesh.NEl)
	}

	fresh := evolved(t)
	psi := append([]float64(nil), fresh.psi...)
	fresh.Load(&mem)
	for e := range fresh.Mass {
		for k := 0; k < 4; k++ {
			if c := cornerStride*e + k; math.Float64bits(fresh.psi[c]) != math.Float64bits(psi[c]) {
				t.Fatalf("Load wrote psi of element %d edge %d: %v, was %v", e, k, fresh.psi[c], psi[c])
			}
		}
	}
	if i := bitsDiffer(fresh.Mass, old.Mass); i >= 0 {
		t.Errorf("Mass[%d] = %v, saved %v", i, fresh.Mass[i], old.Mass[i])
	}
	if i := bitsDiffer(fresh.NdMass, old.NdMass); i >= 0 {
		t.Errorf("NdMass[%d] = %v, saved %v", i, fresh.NdMass[i], old.NdMass[i])
	}
	for e := range old.Mass {
		for k := 0; k < 4; k++ {
			if c := cornerStride*e + k; math.Float64bits(fresh.CMass[c]) != math.Float64bits(old.CMass[c]) {
				t.Fatalf("CMass of element %d corner %d = %v, saved %v", e, k, fresh.CMass[c], old.CMass[c])
			}
		}
	}
}
