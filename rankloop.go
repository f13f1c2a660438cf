package bookleaf

import (
	"fmt"
	"math"
	"time"

	"bookleaf/internal/ale"
	"bookleaf/internal/atomicfile"
	"bookleaf/internal/checkpoint"
	"bookleaf/internal/hydro"
	"bookleaf/internal/obs"
	"bookleaf/internal/typhon"
)

// Collective step-status codes, reduced with AllReduceMin at the top of
// every loop iteration so all ranks agree on the worst rank's state.
// Exact float values: the min of any combination is the dominant code.
// The two control codes slot into the order so that the right action
// dominates: a retry outranks a preempt (the failing rank's state must
// be repaired before a resumable snapshot can be gathered — the preempt
// request stays pending and is honoured at the next healthy point), and
// a cancel outranks a retry (the state is being discarded either way)
// but yields to a fatal fault.
const (
	stOK      = 1.0
	stPreempt = 0.5
	stRetry   = 0.0
	stCancel  = -0.5
	stFatal   = -1.0
)

// What the loop does after a healthy point.
const (
	nextStep   = iota // advance one step
	nextStatus        // a collective failed and latched fatalErr: let the status reduction spread it
	nextFinish        // the run reached its end: leave the loop through the final checkpoint
	nextPark          // preempted or repartitioning: leave the epoch with the fleet parked
)

// phaseCtrs is the per-exchange-phase attribution pair: the loop reads
// the rank's total-traffic counters around each exchange and adds the
// delta here, so per-phase splits can never disagree with the totals
// typhon publishes.
type phaseCtrs struct {
	msgs, words *obs.Counter
}

// rankLoop is one rank's epoch: the step loop with its communication
// schedule, the collective rollback protocol, and — when supervision is
// on — the healthy-point bookkeeping the recovery ladder and the
// forced repartition hang off. It lives for one epoch; what must
// outlive it is in the slot. run walks the phases in order:
// reduceStatus, then rollback or healthyPoint, then advance.
type rankLoop struct {
	d    *driver
	rk   *typhon.Rank
	slot *rankSlot
	s    *hydro.State

	clock *obs.Clock
	probe *obs.InvariantProbe

	elHalo, ndHalo *typhon.Halo
	remap          *ale.Remapper
	hooks          *hydro.Hooks
	aleHooks       *ale.Hooks

	ctrSteps, ctrRemaps, ctrRollbacks, ctrReduce *obs.Counter
	dtCause                                      [5]*obs.Counter
	msgsTotal, wordsTotal                        *obs.Counter
	forcesPh, velPh, remapPh                     phaseCtrs
	// ctrWait (halo_wait_ns) is time spent blocked on halo traffic,
	// visible in metrics.json and bleaf-trace.
	ctrWait *obs.Counter

	// Under supervision, step-progress counters are held pending until
	// the next healthy collective point confirms the step survived. A
	// peer can "complete" a step on garbage ghosts while another rank
	// is dying; that step is rewound by the recovery ladder and
	// replayed, and must not be counted twice. Without supervision the
	// counters update immediately.
	pendSteps, pendRemaps int64
	pendCause             [5]int64

	// commErr latches the first communication failure on this rank; all
	// later exchanges no-op so the rank drains to the next status check
	// instead of blocking on a poisoned Comm.
	commErr error
	// hooksDone counts the exchange hooks run in the current step so a
	// failing rank can compensate the ones its peers still expect.
	hooksDone int
	// stepErr is the last step's failure, fatalErr the fault that ends
	// the epoch; reduceStatus turns both into the collective verdict.
	stepErr, fatalErr error
}

// newRankLoop wires one rank for an epoch: its halos, counters and the
// exchange hooks.
func (d *driver) newRankLoop(rk *typhon.Rank) *rankLoop {
	id := rk.ID()
	slot := d.slots[id]
	sm, reg := slot.sub, slot.reg
	l := &rankLoop{
		d: d, rk: rk, slot: slot, s: slot.s,
		clock: d.byID[id].clock, probe: d.byID[id].probe,
		elHalo: typhon.NewHalo(sm.ElSend, sm.ElRecv),
		ndHalo: typhon.NewHalo(sm.NdSend, sm.NdRecv),

		ctrSteps:     reg.Counter("steps_total"),
		ctrRemaps:    reg.Counter("remaps_total"),
		ctrRollbacks: reg.Counter("rollbacks_total"),
		ctrReduce:    reg.Counter("dt_reductions_total"),
		dtCause:      dtCauseCounters(reg),
		msgsTotal:    reg.Counter("comm_msgs_total"),
		wordsTotal:   reg.Counter("comm_words_total"),
		forcesPh:     phaseCtrs{reg.Counter("halo_msgs_forces"), reg.Counter("halo_words_forces")},
		velPh:        phaseCtrs{reg.Counter("halo_msgs_velocities"), reg.Counter("halo_words_velocities")},
		remapPh:      phaseCtrs{reg.Counter("halo_msgs_remap"), reg.Counter("halo_words_remap")},
		ctrWait:      reg.Counter("halo_wait_ns"),
	}
	if a := d.cfg.aleOptions(); a != nil {
		l.remap = ale.NewRemapper(*a, l.s)
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
			l.hooksDone++
			ff, fw := st.ForceHalo()
			l.exchange(l.forcesPh, l.elHalo, fw, ff...)
		},
		ExchangeVelocities: func(st *hydro.State) {
			l.hooksDone++
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

// run is the loop. Every iteration opens with the status reduction, so
// all ranks take the same branch: out, back (rollback), or through the
// healthy point and one step on.
func (l *rankLoop) run() {
	if l.slot.budget > 0 && !l.slot.roll.Valid() {
		l.s.Save(&l.slot.roll) // cover steps before the first cadence point
	}
loop:
	for {
		g, live := l.reduceStatus()
		if !live {
			break
		}
		if g <= stRetry {
			l.rollback()
			continue
		}
		switch l.healthyPoint(g) {
		case nextStep:
			l.advance()
		case nextFinish:
			break loop
		case nextPark:
			return
		}
	}
	// Final checkpoint. fatalErr is collectively consistent (set on
	// every rank or on none), so participation matches.
	if l.fatalErr == nil && l.d.gsnap != nil {
		l.fatalErr = l.writeCheckpoint()
	}
	l.slot.err = l.fatalErr
}

// reduceStatus folds this rank's condition — a latched fault, a failed
// step, a pending control request — into the collective verdict. It
// returns the reduced code, and false when the verdict ends the epoch
// (fatalErr then says why).
func (l *rankLoop) reduceStatus() (g float64, live bool) {
	id := l.rk.ID()
	if l.fatalErr == nil && l.commErr != nil {
		l.fatalErr = fmt.Errorf("rank %d: %w", id, l.commErr)
	}
	code := stOK
	switch {
	case l.fatalErr != nil:
		code = stFatal
	case l.stepErr != nil:
		if l.slot.budget > 0 && hydro.Retryable(l.stepErr) {
			code = stRetry
		} else {
			l.fatalErr = l.stepErr
			code = stFatal
		}
	default:
		// Control requests ride the same reduction as failures, so
		// every rank acts on the same verdict at the same step. A rank
		// that hasn't seen the request yet still obeys the reduced
		// code.
		switch l.d.cfg.Control.poll() {
		case ctlCancel:
			code = stCancel
		case ctlPreempt:
			code = stPreempt
		}
	}
	g, err := l.allMin(code)
	switch {
	case err != nil:
		if l.fatalErr == nil {
			l.fatalErr = err
		}
	case g <= stFatal:
		if l.fatalErr == nil {
			l.fatalErr = l.stepErr
		}
		if l.fatalErr == nil {
			l.fatalErr = fmt.Errorf("rank %d stopped by peer failure: %w", id, typhon.ErrAborted)
		}
		l.clock.Instant("abort", nil)
	case g <= stCancel:
		// Collective cancellation: every rank latches the same error,
		// so fatalErr stays collectively consistent.
		l.fatalErr = fmt.Errorf("rank %d: %w", id, ErrCanceled)
		l.clock.Instant("cancel", nil)
	default:
		return g, true
	}
	return g, false
}

// rollback is the collective retry: every rank restores its snapshot of
// the same step and sets the shared timestep cap to half the last dt
// taken from the restored point (or half the cap, if lower); advance
// re-grows it via DtGrowth once steps succeed again. The lockstep values
// stay identical across ranks because they only change at collective
// points like this one.
func (l *rankLoop) rollback() {
	sl, s := l.slot, l.s
	sl.budget--
	sl.rollbacks++
	l.ctrRollbacks.Inc()
	l.clock.Instant("rollback", nil)
	s.Load(&sl.roll)
	sl.dtCap = math.Min(sl.dtCap, s.DtPrev) / 2
	l.stepErr = nil
	l.pendSteps, l.pendRemaps, l.pendCause = 0, 0, [5]int64{}
	// The steps past the restored one never happened: their history
	// records go, and the replay records them afresh.
	sl.lastHist = min(sl.lastHist, s.StepCount)
	if l.rk.ID() == 0 {
		h := l.d.history
		for len(h) > 0 && h[len(h)-1].Step > s.StepCount {
			h = h[:len(h)-1]
		}
		l.d.history = h
	}
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
// same step. In order: confirm the counters and refresh the memento the
// recovery ladder resumes from; publish progress; serve the checkpoint,
// probe and history cadences; test for the end of the run; honour a
// preemption; test the repartition trigger; refresh the rollback
// memento.
func (l *rankLoop) healthyPoint(g float64) int {
	d, s, sl := l.d, l.s, l.slot
	cfg := &d.cfg
	step := s.StepCount
	if d.sup != nil {
		// Replacement and epoch retry both restore here, so a replayed
		// step is never double-counted.
		l.flushPending()
		s.Save(&sl.stepStart)
	}
	if l.rk.ID() == 0 {
		// Rank 0 owns progress and mid-run metrics publication; its
		// registry also holds the probe records, so the published
		// snapshot is the most informative single-rank view.
		cfg.Control.noteProgress(step, s.Time, d.tEnd)
		if cfg.Control.snapshotDue(step) {
			cfg.Control.publishMetrics(sl.reg.Snapshot())
		}
	}
	if d.gsnap != nil && due(cfg.CheckpointEvery, step, &sl.lastCk) {
		if l.fatalErr = l.writeCheckpoint(); l.fatalErr != nil {
			return nextStatus
		}
	}
	if due(cfg.ProbeEvery, step, &sl.lastProbe) {
		if l.fatalErr = l.sampleProbe(); l.fatalErr != nil {
			return nextStatus
		}
	}
	if due(cfg.HistoryEvery, step, &sl.lastHist) {
		if l.fatalErr = l.recordHistory(); l.fatalErr != nil {
			return nextStatus
		}
	}
	if s.Time >= d.tEnd-1e-12 || (cfg.MaxSteps > 0 && step >= cfg.MaxSteps) {
		return nextFinish
	}
	if g <= stPreempt {
		// Collective preemption point: gather the world into the
		// in-memory control snapshot and park the epoch; the driver
		// wraps the snapshot in a PreemptedError. The ranks park right
		// after, so nobody re-gathers before the driver reads it from
		// the drained fleet. Placed after the termination test so a run
		// that already reached its end completes instead of preempting.
		d.ctlSnapOnce.Do(func() {
			d.ctlSnap = checkpoint.New(cfg.Problem, cfg.NX, cfg.NY, d.nel, d.nnd)
		})
		if l.fatalErr = l.gatherSnapshot(d.ctlSnap); l.fatalErr != nil {
			return nextStatus
		}
		sl.park = parkPreempt
		l.clock.Instant("preempt", nil)
		return nextPark
	}
	if l.repartDue() {
		// The driver gathers the world from the parked slots and
		// scatters it onto the new fleet.
		sl.park = parkRepart
		return nextPark
	}
	if sl.budget > 0 && step%cfg.rollbackCadence() == 0 {
		s.Save(&sl.roll)
	}
	return nextStep
}

// advance takes one step: the Lagrangian step, the remap when its
// cadence falls, the fault-injection hook and the health sentinel. A
// failure lands in stepErr — after compensating the exchanges peers
// still expect — for the next status reduction to judge.
func (l *rankLoop) advance() {
	d, s, sl := l.d, l.s, l.slot
	cfg, id := &d.cfg, l.rk.ID()
	supervised := d.sup != nil
	l.hooksDone = 0
	// Step increments StepCount only after every failure point, so a
	// failed step leaves it unchanged and a rolled-back step replays
	// with the value it had on the first attempt. Capturing it here
	// makes the remap-cadence arithmetic below explicit: a successful
	// step lands on stepStart+1, which is the count peers consult when
	// they decide to remap.
	stepStart := s.StepCount
	if _, err := s.Step(l.clock, l.hooks); err != nil {
		l.stepErr = fmt.Errorf("rank %d step %d (t=%v): %w", id, s.StepCount, s.Time, err)
		// Compensate the exchanges peers will still perform this step,
		// keeping the schedule deadlock-free.
		if l.hooksDone < 1 {
			ff, fw := s.ForceHalo()
			l.exchange(l.forcesPh, l.elHalo, fw, ff...)
		}
		if l.hooksDone < 2 {
			l.exchange(l.velPh, l.ndHalo, 1, s.U, s.V, s.UBar, s.VBar)
		}
		// Peers that completed the step sit at stepStart+1 and remap
		// when that count hits the cadence; answer their full exchange
		// sequence (node targets, cell fields, velocities) with scratch
		// values — a collective rollback follows, so only the pattern
		// matters.
		if l.remap != nil && (stepStart+1)%cfg.ALEFreq == 0 {
			l.remap.ExchangeScratch(s, l.aleHooks)
		}
		return
	}
	if l.remap != nil && s.StepCount%cfg.ALEFreq == 0 {
		l.clock.Start(hydro.TimerALE)
		// Apply owns the remap's halo exchanges, including the
		// post-remap ghost-velocity refresh, which it performs on every
		// path — even failures — so peers don't block.
		err := l.remap.Apply(s, l.clock, l.aleHooks)
		l.clock.Stop(hydro.TimerALE)
		if err != nil {
			l.stepErr = fmt.Errorf("rank %d remap step %d: %w", id, s.StepCount, err)
			return
		}
		if supervised {
			l.pendRemaps++
		} else {
			l.ctrRemaps.Inc()
		}
	}
	if cfg.testFault != nil {
		cfg.testFault(id, s.StepCount, s)
	}
	// Health sentinel: a NaN/Inf in the evolving fields rolls the run
	// back rather than silently spreading through the next halo
	// exchange. The probe records the finding first, so corruption is
	// flagged within the step it appears even though the rollback
	// erases the corrupted state.
	if err := s.CheckFinite(); err != nil {
		l.probe.NoteNonFinite(s.StepCount, s.Time)
		l.clock.Instant("probe_violation", nil)
		l.stepErr = fmt.Errorf("rank %d step %d (t=%v): %w", id, s.StepCount, s.Time, err)
		return
	}
	if supervised {
		l.pendSteps++
		l.pendCause[s.DtCause]++
	} else {
		l.ctrSteps.Inc()
		l.dtCause[s.DtCause].Inc()
	}
	if !math.IsInf(sl.dtCap, 1) {
		sl.dtCap *= s.Opt.DtGrowth
	}
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

// allMin is AllReduceMin with the rank named in the error.
func (l *rankLoop) allMin(v float64) (float64, error) {
	g, err := l.rk.AllReduceMin(v)
	if err != nil {
		return g, fmt.Errorf("rank %d: %w", l.rk.ID(), err)
	}
	return g, nil
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

// gatherSnapshot is the collective gather behind every snapshot a
// running fleet takes — cadence and final checkpoints, preemption:
// every rank writes its owned entities into snap and rank 0 stamps the
// clock and the rank-summed audit accumulators. The reductions double
// as the barrier that orders all gathers before anyone reads snap.
func (l *rankLoop) gatherSnapshot(snap *checkpoint.Snapshot) error {
	s := l.s
	ok := stOK
	if err := snap.Gather(s); err != nil {
		ok = stFatal
	}
	work, floor := s.ExternalWork, s.FloorEnergy
	if err := l.allSum(&work, &floor); err != nil {
		return err
	}
	if g, err := l.allMin(ok); err != nil {
		return err
	} else if g < 0 {
		return fmt.Errorf("rank %d: snapshot gather failed", l.rk.ID())
	}
	if l.rk.ID() == 0 {
		snap.SetClock(s.Time, s.DtPrev, s.StepCount, work, floor)
	}
	return nil
}

// writeCheckpoint gathers the fleet into the shared checkpoint snapshot
// and has rank 0 write it. The closing reduction keeps every rank from
// re-gathering before the write finishes, and spreads its outcome.
func (l *rankLoop) writeCheckpoint() error {
	if err := l.gatherSnapshot(l.d.gsnap); err != nil {
		return err
	}
	ok := stOK
	var wErr error
	if l.rk.ID() == 0 {
		if wErr = atomicfile.Write(l.d.cfg.Checkpoint, l.d.gsnap.Write); wErr != nil {
			wErr = fmt.Errorf("checkpoint: %w", wErr)
			ok = stFatal
		}
	}
	g, err := l.allMin(ok)
	switch {
	case err != nil:
		return err
	case wErr != nil:
		return wErr
	case g < 0:
		return fmt.Errorf("rank %d: checkpoint write failed on rank 0", l.rk.ID())
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
