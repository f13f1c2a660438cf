package hydro

import (
	"errors"
	"fmt"
	"math"
)

// ErrNonFinite reports a NaN or Inf detected in an evolving field by
// the per-step health sentinel — the signature of a corrupted message,
// a bad remap, or a blow-up that would otherwise silently poison the
// whole run.
type ErrNonFinite struct {
	// Field names the offending array (rho, ein, p, u, v).
	Field string
	// Element or node index; Global is the global id on partitioned
	// meshes (equal to Index on serial ones).
	Index, Global int
	Value         float64
}

func (e *ErrNonFinite) Error() string {
	return fmt.Sprintf("hydro: non-finite %s = %v at %s %d (global %d)",
		e.Field, e.Value, e.kind(), e.Index, e.Global)
}

func (e *ErrNonFinite) kind() string {
	switch e.Field {
	case "u", "v":
		return "node"
	}
	return "element"
}

// CheckFinite scans the owned thermodynamic and kinematic fields for
// NaN/Inf and returns an *ErrNonFinite describing the first offender,
// or nil. Drivers run it after every step as the health sentinel that
// triggers rollback-retry.
func (s *State) CheckFinite() error {
	m := s.Mesh
	elFields := []struct {
		name string
		a    []float64
	}{{"rho", s.Rho}, {"ein", s.Ein}, {"p", s.P}}
	for _, f := range elFields {
		for e := 0; e < m.NOwnEl; e++ {
			if v := f.a[e]; math.IsNaN(v) || math.IsInf(v, 0) {
				return &ErrNonFinite{Field: f.name, Index: e, Global: m.GlobalElID(e), Value: v}
			}
		}
	}
	ndFields := []struct {
		name string
		a    []float64
	}{{"u", s.U}, {"v", s.V}}
	for _, f := range ndFields {
		for n := 0; n < m.NOwnNd; n++ {
			if v := f.a[n]; math.IsNaN(v) || math.IsInf(v, 0) {
				return &ErrNonFinite{Field: f.name, Index: n, Global: m.GlobalNdID(n), Value: v}
			}
		}
	}
	return nil
}

// Retryable reports whether err is a failure the driver may attempt to
// recover from by rolling back to an earlier snapshot and retrying with
// a reduced timestep: a timestep collapse, a tangled element, a
// non-finite field, or any error that classifies itself as transient
// via a Transient() method (the ALE remap's flux-overshoot failure,
// which shrinks with the timestep, reports that way — hydro cannot
// name the type without an import cycle). Communication faults and
// setup errors are not retryable.
func Retryable(err error) bool {
	var (
		dc *ErrDtCollapse
		tg *ErrTangled
		nf *ErrNonFinite
	)
	if errors.As(err, &dc) || errors.As(err, &tg) || errors.As(err, &nf) {
		return true
	}
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}

// Memento is an in-memory copy of what moves in a State — owned and
// ghost entities alike — taken by Save and reinstated by Load. The
// parallel driver keeps one per rank as its rolling rollback snapshot:
// because ghosts are saved too, a Load needs no halo refresh and is
// bit-exact.
type Memento struct {
	// Masses makes the memento carry Mass, CMass and NdMass as well.
	// Only a remap writes them, so whoever owns the memento sets this,
	// before the first Save, iff the run remaps. Save and Load obey the
	// memento, not the state: a replacement rank's fresh state, which no
	// remapper has touched, must still be given the remapped masses.
	Masses bool

	x, y, u, v                []float64
	rho, ein, p, q, csq, vol  []float64
	mass, cMass, ndMass       []float64
	time, dtPrev              float64
	stepCount                 int
	externalWork, floorEnergy float64
	valid                     bool
}

// Valid reports whether the memento holds a saved state.
func (m *Memento) Valid() bool { return m.valid }

// Save copies the evolving state of s into m, reusing m's storage
// after the first call.
func (s *State) Save(m *Memento) {
	cp := func(dst *[]float64, src []float64) {
		if len(*dst) != len(src) {
			*dst = make([]float64, len(src))
		}
		copy(*dst, src)
	}
	cp(&m.x, s.X)
	cp(&m.y, s.Y)
	cp(&m.u, s.U)
	cp(&m.v, s.V)
	cp(&m.rho, s.Rho)
	cp(&m.ein, s.Ein)
	cp(&m.p, s.P)
	cp(&m.q, s.Q)
	cp(&m.csq, s.Csq)
	cp(&m.vol, s.Vol)
	if m.Masses {
		cp(&m.mass, s.Mass)
		cp(&m.cMass, s.CMass)
		cp(&m.ndMass, s.NdMass)
	}
	m.time, m.dtPrev = s.Time, s.DtPrev
	m.stepCount = s.StepCount
	m.externalWork, m.floorEnergy = s.ExternalWork, s.FloorEnergy
	m.valid = true
}

// Load reinstates the state saved by Save. It panics if m is empty or
// sized for a different mesh.
func (s *State) Load(m *Memento) {
	if !m.valid {
		panic("hydro: Load from empty Memento")
	}
	if len(m.x) != len(s.X) || len(m.rho) != len(s.Rho) {
		panic("hydro: Load from Memento of a different mesh")
	}
	copy(s.X, m.x)
	copy(s.Y, m.y)
	copy(s.U, m.u)
	copy(s.V, m.v)
	copy(s.Rho, m.rho)
	copy(s.Ein, m.ein)
	copy(s.P, m.p)
	copy(s.Q, m.q)
	copy(s.Csq, m.csq)
	copy(s.Vol, m.vol)
	if m.Masses {
		copy(s.Mass, m.mass)
		copy(s.CMass, m.cMass)
		copy(s.NdMass, m.ndMass)
	}
	s.Time, s.DtPrev = m.time, m.dtPrev
	s.StepCount = m.stepCount
	s.ExternalWork, s.FloorEnergy = m.externalWork, m.floorEnergy
}
