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

	// el and nd are the saved prefixes of the element and node slabs;
	// cMass the CMass halves of the corner records, 4 per element.
	el, nd, cMass []float64
	clock         Clock
	valid         bool
}

// Valid reports whether the memento holds a saved state.
func (m *Memento) Valid() bool { return m.valid }

// kept is the last class of row m carries.
func (m *Memento) kept() class {
	if m.Masses {
		return remapWritten
	}
	return evolving
}

// Save copies the evolving state of s into m, reusing m's storage
// after the first call.
func (s *State) Save(m *Memento) {
	cp := func(dst *[]float64, src []float64) {
		if len(*dst) != len(src) {
			*dst = make([]float64, len(src))
		}
		copy(*dst, src)
	}
	c := m.kept()
	cp(&m.el, s.el.prefix(rowsUpTo(element, c)))
	cp(&m.nd, s.nd.prefix(rowsUpTo(node, c)))
	if m.Masses {
		nel := s.Mesh.NEl
		if len(m.cMass) != 4*nel {
			m.cMass = make([]float64, 4*nel)
		}
		for e := 0; e < nel; e++ {
			copy(m.cMass[4*e:4*e+4], s.CMass[cornerStride*e:])
		}
	}
	m.clock = s.Clock
	m.valid = true
}

// Load reinstates the state saved by Save. It panics if m is empty or
// sized for a different mesh.
func (s *State) Load(m *Memento) {
	if !m.valid {
		panic("hydro: Load from empty Memento")
	}
	c := m.kept()
	el, nd := s.el.prefix(rowsUpTo(element, c)), s.nd.prefix(rowsUpTo(node, c))
	if len(m.el) != len(el) || len(m.nd) != len(nd) || m.Masses && len(m.cMass) != 4*s.Mesh.NEl {
		panic("hydro: Load from Memento of a different mesh")
	}
	copy(el, m.el)
	copy(nd, m.nd)
	if m.Masses {
		for e := 0; e < s.Mesh.NEl; e++ {
			copy(s.CMass[cornerStride*e:cornerStride*e+4], m.cMass[4*e:])
		}
	}
	s.Clock = m.clock
}
