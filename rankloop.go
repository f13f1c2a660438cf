package bookleaf

import (
	"fmt"
	"math"
	"time"

	"bookleaf/internal/ale"
	"bookleaf/internal/hydro"
	"bookleaf/internal/obs"
	"bookleaf/internal/typhon"
)

// Collective control codes, reduced with AllReduceMin at the top of
// every loop iteration so all ranks act on the same request at the same
// step. Exact float values: the min of any combination is the dominant
// code, so a cancel outranks a preempt (the state is being discarded
// either way). Failures do not ride this reduction: a failing rank
// aborts the communicator and the driver judges the epoch.
const (
	stOK      = 1.0
	stPreempt = 0.5
	stCancel  = 0.0
)

// phaseCtrs is the per-exchange-phase attribution pair: the loop reads
// the rank's total-traffic counters around each exchange and adds the
// delta here, so per-phase splits can never disagree with the totals
// typhon publishes.
type phaseCtrs struct {
	msgs, words *obs.Counter
}

// rankLoop is one rank's epoch: the step loop with its communication
// schedule, the probe and history cadences, and the healthy-point
// bookkeeping the recovery rungs hang off. It touches only its own
// rank's part of the world: whatever needs the whole of it — a
// checkpoint, a preemption snapshot, a repartition, a rollback — is
// done by the driver between epochs. It lives for one epoch; what must
// outlive it is in the slot. run walks the phases in order:
// reduceStatus, healthyPoint, advance.
type rankLoop struct {
	d    *driver
	rk   *typhon.Rank
	slot *rankSlot
	s    *hydro.State

	reg   *obs.Registry
	clock *obs.Clock
	probe *obs.InvariantProbe

	elHalo, ndHalo *typhon.Halo
	hooks          *hydro.Hooks
	aleHooks       *ale.Hooks

	ctrSteps, ctrRemaps, ctrReduce *obs.Counter
	dtCause                        [5]*obs.Counter
	msgsTotal, wordsTotal          *obs.Counter
	forcesPh, velPh, remapPh       phaseCtrs
	// ctrWait (halo_wait_ns) is time spent blocked on halo traffic,
	// visible in metrics.json and bleaf-trace.
	ctrWait *obs.Counter

	// Step-progress counters are held pending until the next healthy
	// collective point confirms the step survived. A peer can
	// "complete" a step on garbage ghosts while another rank is dying;
	// that step dies with the epoch, is rewound by a rollback or the
	// recovery ladder and replayed, and must not be counted twice.
	pendSteps, pendRemaps int64
	pendCause             [5]int64

	// commErr latches the first communication failure on this rank; all
	// later exchanges no-op so the rank drains to the end of its step
	// instead of blocking on a poisoned Comm, and advance reports it.
	commErr error
}

// newRankLoop wires one rank for an epoch: its halos, counters and the
// exchange hooks. A slot's remapper is built on its first epoch and
// kept for the slot's life.
func (d *driver) newRankLoop(rk *typhon.Rank) *rankLoop {
	id := rk.ID()
	slot, o := d.slots[id], d.byID[id]
	sm, reg := slot.sub, o.reg
	l := &rankLoop{
		d: d, rk: rk, slot: slot, s: slot.s,
		clock: o.clock, probe: o.probe, reg: reg,
		elHalo: typhon.NewHalo(sm.ElSend, sm.ElRecv),
		ndHalo: typhon.NewHalo(sm.NdSend, sm.NdRecv),

		ctrSteps:   reg.Counter("steps_total"),
		ctrRemaps:  reg.Counter("remaps_total"),
		ctrReduce:  reg.Counter("dt_reductions_total"),
		dtCause:    dtCauseCounters(reg),
		msgsTotal:  reg.Counter("comm_msgs_total"),
		wordsTotal: reg.Counter("comm_words_total"),
		forcesPh:   phaseCtrs{reg.Counter("halo_msgs_forces"), reg.Counter("halo_words_forces")},
		velPh:      phaseCtrs{reg.Counter("halo_msgs_velocities"), reg.Counter("halo_words_velocities")},
		remapPh:    phaseCtrs{reg.Counter("halo_msgs_remap"), reg.Counter("halo_words_remap")},
		ctrWait:    reg.Counter("halo_wait_ns"),
	}
	if a := d.cfg.aleOptions(); a != nil && slot.remap == nil {
		slot.remap = ale.NewRemapper(*a, slot.s)
	}
	l.aleHooks = &ale.Hooks{
		ExchangeCellFields: func(fields ...[]float64) {
			l.exchange(l.remapPh, l.elHalo, 1, fields...)
		},
		ExchangeNodeFields: func(x, y []float64) {
			l.exchange(l.remapPh, l.ndHalo, 1, x, y)
		},
		ExchangeVelocities: func(u, v []float64) {
			l.exchange(l.remapPh, l.ndHalo, 1, u, v)
		},
	}
	l.hooks = &hydro.Hooks{
		ReduceDt: l.reduceDt,
		ExchangeForces: func(st *hydro.State) {
			ff, fw := st.ForceHalo()
			l.exchange(l.forcesPh, l.elHalo, fw, ff...)
		},
		ExchangeVelocities: func(st *hydro.State) {
			l.exchange(l.velPh, l.ndHalo, 1, st.U, st.V, st.UBar, st.VBar)
		},
	}
	return l
}

// reduceDt is the step's one global reduction: the timestep with MINLOC
// semantics over the controlling element's global id, under the
// rollback back-off cap and clipped to the end time.
func (l *rankLoop) reduceDt(dt float64, e int) (float64, int) {
	if dt > l.slot.dtCap {
		dt = l.slot.dtCap
	}
	loc := -1
	if e >= 0 {
		loc = l.slot.sub.M.GlobalElID(e)
	}
	if l.commErr == nil {
		l.ctrReduce.Inc()
		if d, g, err := l.rk.AllReduceMinLoc(dt, loc); err != nil {
			l.commErr = err
		} else {
			dt, loc = d, g
		}
	}
	if l.s.Time+dt > l.d.tEnd {
		dt = l.d.tEnd - l.s.Time
	}
	return dt, loc
}

// exchange runs one blocking halo exchange, timing the wait and
// attributing the traffic to phase ph.
func (l *rankLoop) exchange(ph phaseCtrs, h *typhon.Halo, stride int, fields ...[]float64) {
	if l.commErr != nil {
		return
	}
	m0, w0 := l.msgsTotal.Value(), l.wordsTotal.Value()
	t0 := time.Now()
	if err := l.rk.Exchange(h, stride, fields...); err != nil {
		l.commErr = err
	}
	d := time.Since(t0)
	l.ctrWait.Add(d.Nanoseconds())
	l.clock.Span("halo_wait", t0, d)
	ph.msgs.Add(l.msgsTotal.Value() - m0)
	ph.words.Add(l.wordsTotal.Value() - w0)
}

// run is the loop: the status reduction, the healthy point, one step
// on. It leaves the epoch when the run ends, the fleet parks, a cancel
// is agreed or a fault surfaces, with the rank's error in the slot. A
// rank whose step fails aborts the communicator, which brings its peers
// out at their next exchange or reduction; the driver judges the epoch
// (rollback, the supervision ladder, or the run's error).
func (l *rankLoop) run() {
	sl := l.slot
	if sl.budget > 0 && !sl.roll.Valid() {
		l.s.Save(&sl.roll) // cover steps before the first cadence point
	}
	for {
		g, err := l.reduceStatus()
		if err != nil {
			sl.err = err
			return
		}
		if step, err := l.healthyPoint(g); !step {
			sl.err = err
			return
		}
		if err := l.advance(); err != nil {
			sl.err = err
			l.clock.Instant("abort", nil)
			l.rk.Abort(err)
			return
		}
	}
}

// reduceStatus makes the ranks' pending control requests one collective
// verdict. A rank that hasn't seen the request yet still obeys the
// reduced code. It returns the reduced code, or the error that ends the
// epoch: an agreed cancel (the same on every rank), or the fault that
// poisoned the communicator.
func (l *rankLoop) reduceStatus() (float64, error) {
	code := stOK
	switch l.d.cfg.Control.poll() {
	case ctlCancel:
		code = stCancel
	case ctlPreempt:
		code = stPreempt
	}
	g, err := l.rk.AllReduceMin(code)
	switch {
	case err != nil:
		err = fmt.Errorf("rank %d: %w", l.rk.ID(), err)
	case g <= stCancel:
		l.clock.Instant("cancel", nil)
		err = fmt.Errorf("rank %d: %w", l.rk.ID(), ErrCanceled)
	}
	return g, err
}

// due reports whether step is a point of the every-n cadence that has
// not been served yet, and marks it served.
func due(every, step int, last *int) bool {
	if every <= 0 || step <= 0 || step%every != 0 || step == *last {
		return false
	}
	*last = step
	return true
}

// healthyPoint is where every rank is known to be healthy and at the
// same step. In order: confirm the counters and, under supervision,
// refresh the memento the recovery ladder resumes from; publish
// progress; serve the probe and history cadences; test for the end of
// the run; park for a due checkpoint, a preemption or the repartition;
// refresh the rollback memento. It reports whether to step on, and the
// fault of a reduction that failed. A parked, rolled-back or recovered
// fleet re-enters here in the next epoch, where the cadences it already
// served are not due again.
func (l *rankLoop) healthyPoint(g float64) (bool, error) {
	d, s, sl := l.d, l.s, l.slot
	cfg := &d.cfg
	step := s.StepCount
	l.flushPending()
	if d.sup != nil {
		// Replacement and epoch retry both restore here.
		s.Save(&sl.stepStart)
	}
	if l.rk.ID() == 0 {
		// Rank 0 owns progress and mid-run metrics publication; its
		// registry also holds the probe records, so the published
		// snapshot is the most informative single-rank view.
		cfg.Control.noteProgress(step, s.Time, d.tEnd)
		if cfg.Control.snapshotDue(step) {
			cfg.Control.publishMetrics(l.reg.Snapshot())
		}
	}
	if due(cfg.ProbeEvery, step, &sl.lastProbe) {
		if err := l.sampleProbe(); err != nil {
			return false, err
		}
	}
	if due(cfg.HistoryEvery, step, &sl.lastHist) {
		if err := l.recordHistory(); err != nil {
			return false, err
		}
	}
	if s.Time >= d.tEnd-1e-12 || (cfg.MaxSteps > 0 && step >= cfg.MaxSteps) {
		return false, nil
	}
	// The park verdicts read only reduced or lockstep values, so every
	// rank parks for the same reason or none does. The termination test
	// comes first: a run that reached its end completes instead of
	// preempting, and its end-of-run dump is the checkpoint.
	switch {
	case cfg.Checkpoint != "" && due(cfg.CheckpointEvery, step, &sl.lastCk):
		sl.park = parkCheckpoint
	case g <= stPreempt:
		sl.park = parkPreempt
		l.clock.Instant("preempt", nil)
	case l.repartDue():
		sl.park = parkRepart
	default:
		if sl.budget > 0 && step%cfg.rollbackCadence() == 0 {
			s.Save(&sl.roll)
		}
		return true, nil
	}
	return false, nil
}

// advance takes one step and confirms it pending: the step counts and
// the cap's re-growth. It returns the rank's failure. A communication
// fault latched during the step is that failure whatever the step made
// of the ghosts that never arrived; otherwise a failed step or remap
// marks the slot (stepFailed), the driver's evidence that the rank
// failed on its own.
func (l *rankLoop) advance() error {
	s, sl := l.s, l.slot
	err := l.step()
	if l.commErr != nil {
		return fmt.Errorf("rank %d: %w", l.rk.ID(), l.commErr)
	}
	if err != nil {
		sl.stepFailed = true
		return err
	}
	l.pendSteps++
	l.pendCause[s.DtCause]++
	if !math.IsInf(sl.dtCap, 1) {
		sl.dtCap *= s.Opt.DtGrowth
	}
	return nil
}

// step runs the Lagrangian step, the remap when its cadence falls, the
// fault-injection hook and the health sentinel, and returns the first
// failure with the rank and step named.
func (l *rankLoop) step() error {
	d, s, sl := l.d, l.s, l.slot
	cfg, id := &d.cfg, l.rk.ID()
	// Step increments StepCount only after its last failure point, so a
	// failed step leaves it unchanged and a rolled-back step replays
	// with the value it had on the first attempt.
	if _, err := s.Step(l.clock, l.hooks); err != nil {
		return fmt.Errorf("rank %d step %d (t=%v): %w", id, s.StepCount, s.Time, err)
	}
	if sl.remap != nil && s.StepCount%cfg.ALEFreq == 0 {
		l.clock.Start(hydro.TimerALE)
		err := sl.remap.Apply(s, l.clock, l.aleHooks)
		l.clock.Stop(hydro.TimerALE)
		if err != nil {
			return fmt.Errorf("rank %d remap step %d: %w", id, s.StepCount, err)
		}
		l.pendRemaps++
	}
	if cfg.testFault != nil {
		cfg.testFault(id, s.StepCount, s)
	}
	// Health sentinel: a NaN/Inf in the evolving fields fails the step
	// rather than silently spreading through the next halo exchange.
	// The probe records the finding first, so corruption is flagged
	// within the step it appears even though the rollback erases the
	// corrupted state.
	if err := s.CheckFinite(); err != nil {
		l.probe.NoteNonFinite(s.StepCount, s.Time)
		l.clock.Instant("probe_violation", nil)
		return fmt.Errorf("rank %d step %d (t=%v): %w", id, s.StepCount, s.Time, err)
	}
	return nil
}

// flushPending confirms the counters of the steps that survived to a
// healthy point.
func (l *rankLoop) flushPending() {
	l.ctrSteps.Add(l.pendSteps)
	l.ctrRemaps.Add(l.pendRemaps)
	for c, v := range l.pendCause {
		l.dtCause[c].Add(v)
	}
	l.pendSteps, l.pendRemaps, l.pendCause = 0, 0, [5]int64{}
}

// allSum replaces each value with its sum across ranks, one reduction
// per value in argument order.
func (l *rankLoop) allSum(vals ...*float64) error {
	for _, v := range vals {
		sum, err := l.rk.AllReduceSum(*v)
		if err != nil {
			return fmt.Errorf("rank %d: %w", l.rk.ID(), err)
		}
		*v = sum
	}
	return nil
}

// sampleProbe globally reduces the conservation invariants and records
// the sample on rank 0. The sampled state is finite by construction — a
// non-finite field never reaches the healthy point; those are flagged
// through NoteNonFinite on the rank that detects them.
func (l *rankLoop) sampleProbe() error {
	s := l.s
	mass, energy, work, floor := s.TotalMass(), s.TotalEnergy(), s.ExternalWork, s.FloorEnergy
	if err := l.allSum(&mass, &energy, &work, &floor); err != nil {
		return err
	}
	if l.rk.ID() == 0 {
		rec := l.probe.Sample(s.StepCount, s.Time, mass, energy, work, floor, true)
		if rec.Violation {
			l.clock.Instant("probe_violation", nil)
		}
	}
	return nil
}

// recordHistory appends the step's record to the run's history on
// rank 0, from globally reduced energies.
func (l *rankLoop) recordHistory() error {
	s := l.s
	energy, kinetic := s.TotalEnergy(), s.KineticEnergy()
	if err := l.allSum(&energy, &kinetic); err != nil {
		return err
	}
	if l.rk.ID() == 0 {
		l.d.history = append(l.d.history, StepRecord{
			Step: s.StepCount, Time: s.Time, Dt: s.DtPrev, Energy: energy, Kinetic: kinetic,
		})
	}
	return nil
}

// repartDue reports whether the run's one repartition ([supervise]
// repart_at) falls at this healthy point. It reads only the step count
// and the supervisor's repartition count, written between epochs, so
// every rank computes the same verdict without a reduction.
func (l *rankLoop) repartDue() bool {
	sc := l.d.cfg.Supervise
	return sc != nil && sc.RepartAtStep > 0 && l.s.StepCount >= sc.RepartAtStep && l.d.sup.Reparts() == 0
}
