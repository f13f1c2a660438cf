package hydro

import (
	"bookleaf/internal/mesh"
	"bookleaf/internal/obs"
)

// Hooks are the distributed-memory extension points of the Lagrangian
// step. They sit exactly where the paper places BookLeaf's
// communications: one global reduction for the timestep, one halo
// exchange immediately before the acceleration calculation (ghost
// corner forces), and one refreshing ghost nodal kinematics that
// services the next viscosity calculation. Nil hooks (or nil fields)
// give serial behaviour.
type Hooks struct {
	// ReduceDt globally reduces the local stable timestep with MINLOC
	// semantics over the controlling element id.
	ReduceDt func(dt float64, elem int) (float64, int)
	// ExchangeForces refreshes ghost-element corner forces (FX, FY)
	// before the acceleration scatter.
	ExchangeForces func(s *State)
	// ExchangeVelocities refreshes ghost-node U, V, UBar, VBar after
	// the acceleration update.
	ExchangeVelocities func(s *State)
}

// Kernel timer names, matching the paper's Table II breakdown.
const (
	TimerGetDt    = "getdt"
	TimerGetQ     = "getq"
	TimerGetForce = "getforce"
	TimerGetAcc   = "getacc"
	TimerGetGeom  = "getgeom"
	TimerGetRho   = "getrho"
	TimerGetEin   = "getein"
	TimerGetPC    = "getpc"
	TimerComms    = "comms"
	TimerALE      = "alestep"
)

// Step advances the state by one Lagrangian predictor-corrector step,
// accumulating per-kernel times into tm (a nil *obs.Clock discards
// them). It returns the timestep taken. Steady-state steps perform no
// heap allocations (see kernelBodies), a property the AllocsPerRun
// regression tests pin down.
func (s *State) Step(tm *obs.Clock, hooks *Hooks) (float64, error) {
	// Timestep: the paper's Algorithm 1 skips GETDT on the first step.
	var dt float64
	var controller int
	if s.StepCount == 0 {
		dt, controller = s.Opt.DtInitial, -1
		s.DtCause = DtCauseInitial
	} else {
		tm.Start(TimerGetDt)
		dt, controller = s.GetDt()
		tm.Stop(TimerGetDt)
	}
	if hooks != nil && hooks.ReduceDt != nil {
		tm.Start(TimerComms)
		dt, controller = hooks.ReduceDt(dt, controller)
		tm.Stop(TimerComms)
	}
	if dt < s.Opt.DtMin {
		return 0, &ErrDtCollapse{Dt: dt, Element: controller}
	}

	// Save start-of-step state.
	copy(s.X0, s.X)
	copy(s.Y0, s.Y)
	copy(s.U0, s.U)
	copy(s.V0, s.V)
	copy(s.Ein0, s.Ein)

	// --- Predictor: evolve to the half step with start-of-step
	// velocities (no acceleration, per Algorithm 1).
	s.forcePhase(tm, false)
	if _, err := s.updatePhase(tm, 0.5*dt, s.U0, s.V0); err != nil { // half-step floor is transient
		return 0, err
	}

	// --- Corrector: forces from the half-step state, acceleration,
	// time-centred geometry and energy, with blocking halo exchanges at
	// the paper's two communication points (DESIGN.md §10).
	s.forcePhase(tm, true)
	if hooks != nil && hooks.ExchangeForces != nil {
		tm.Start(TimerComms)
		hooks.ExchangeForces(s)
		tm.Stop(TimerComms)
	}

	tm.Start(TimerGetAcc)
	s.GetAcc(dt)
	tm.Stop(TimerGetAcc)
	// pistonWork reads ghost corner forces, so it follows the exchange.
	s.ExternalWork += -dt * s.pistonWork()

	if hooks != nil && hooks.ExchangeVelocities != nil {
		tm.Start(TimerComms)
		hooks.ExchangeVelocities(s)
		tm.Stop(TimerComms)
	}

	fl, err := s.updatePhase(tm, dt, s.UBar, s.VBar)
	if err != nil {
		return 0, err
	}
	s.FloorEnergy += fl

	s.Time += dt
	s.DtPrev = dt
	s.StepCount++
	return dt, nil
}

// forcePhase computes viscosity and corner forces of the owned
// elements from the start-of-step velocities: one fused sweep
// (Options.Fuse, the default; see fused.go) or the paper's getq and
// getforce kernels. Fields are bitwise-identical either way. corrector
// lets the fused sweep reuse the limiter its predictor sweep stored
// (see elemQ); the unfused kernels evaluate it in both.
func (s *State) forcePhase(tm *obs.Clock, corrector bool) {
	nel := s.Mesh.NOwnEl
	if s.Opt.Fuse {
		tm.Start(TimerQForce)
		s.getQForce(0, nel, s.U0, s.V0, corrector)
		tm.Stop(TimerQForce)
		return
	}
	tm.Start(TimerGetQ)
	s.GetQ(0, nel)
	tm.Stop(TimerGetQ)

	tm.Start(TimerGetForce)
	s.GetForce(0, nel, s.U0, s.V0)
	tm.Stop(TimerGetForce)
}

// updatePhase moves the nodes by dt at velocities (uArr, vArr) and
// brings the owned elements' volume, density, energy and EOS up to
// date: one fused sweep or the getgeom, getrho, getein and getpc
// kernels. It returns the energy the floor added (see GetEin), and
// commits nothing past a tangle: the unfused chain stops at getgeom,
// the fused sweep returns before its floor total.
func (s *State) updatePhase(tm *obs.Clock, dt float64, uArr, vArr []float64) (float64, error) {
	nel := s.Mesh.NOwnEl
	if s.Opt.Fuse {
		tm.Start(TimerLagUpdate)
		fl, err := s.FusedUpdate(dt, uArr, vArr, 0, nel)
		tm.Stop(TimerLagUpdate)
		return fl, err
	}
	tm.Start(TimerGetGeom)
	err := s.GetGeom(dt, uArr, vArr, 0, nel)
	tm.Stop(TimerGetGeom)
	if err != nil {
		return 0, err
	}

	tm.Start(TimerGetRho)
	s.GetRho(0, nel)
	tm.Stop(TimerGetRho)

	tm.Start(TimerGetEin)
	fl := s.GetEin(dt, uArr, vArr, 0, nel)
	tm.Stop(TimerGetEin)

	tm.Start(TimerGetPC)
	s.GetPC(0, nel)
	tm.Stop(TimerGetPC)
	return fl, nil
}

// pistonWork returns the rate of work the gas does on prescribed-
// velocity nodes — pistons and frozen far-field inflow — (negated by
// the caller to get energy injected).
func (s *State) pistonWork() float64 {
	m := s.Mesh
	var w float64
	for n := 0; n < m.NOwnNd; n++ {
		bc := m.BCs[n]
		if bc&(mesh.Piston|mesh.FrozenVel) == 0 {
			continue
		}
		var fx, fy float64
		for _, c := range m.NdCorner[m.NdElStart[n]:m.NdElStart[n+1]] {
			ci := cornerSlot(c)
			fx += s.FX[ci]
			fy += s.FY[ci]
		}
		w += fx*s.UBar[n] + fy*s.VBar[n]
	}
	return w
}
