// Package supervise is the rank-supervision layer between the parallel
// driver and its goroutine ranks: it turns "a rank misbehaved" into a
// graded, observable recovery ladder. The ladder is the driver's second
// rung: every recovery runs between epochs, and a failure reaches the
// supervisor only when the first rung, rollback-retry of a rank's own
// retryable step failure, does not take it.
//
// Every failure surfaced by the typhon/hydro/ale layers is classified
// into one of three classes:
//
//   - transient       — expected to vanish on a retry (a one-off
//     corrupted or delayed message, a flux overshoot, a timestep
//     collapse): the supervisor grants a bounded number of immediate
//     epoch retries;
//   - rank-persistent — localised to one rank and expected to recur
//     (a panicked rank goroutine, repeated size mismatches from the
//     same sender, a retry budget drained on one rank): the supervisor
//     replaces the rank from its last in-memory Memento while the
//     peers wait at a barrier;
//   - fatal           — not attributable or not recoverable (setup
//     errors, drained replacement budget): the supervisor directs a
//     checkpoint-then-abort so the run leaves a valid restart dump.
//
// The Supervisor itself is pure decision logic plus metrics: it owns
// no goroutines, performs no communication and reads no clock. The
// parallel driver feeds it epoch outcomes and applies the returned
// Decision (retry, replace, abort). The budgets are the constants
// below, not settings: every decision is a function of the fault
// sequence alone, so a supervised run reproduces.
package supervise

import (
	"errors"
	"fmt"

	"bookleaf/internal/hydro"
	"bookleaf/internal/obs"
	"bookleaf/internal/typhon"
)

// Class is the fault class the ladder escalates on.
type Class int

const (
	// ClassTransient faults are retried in place.
	ClassTransient Class = iota
	// ClassRankPersistent faults replace the offending rank.
	ClassRankPersistent
	// ClassFatal faults end the run after a final checkpoint.
	ClassFatal
)

func (c Class) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassRankPersistent:
		return "rank-persistent"
	case ClassFatal:
		return "fatal"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// classifyError returns the fault class of a single occurrence of err,
// before any history-based escalation. A recovered rank panic is
// rank-persistent immediately — the goroutine is gone and respawning
// it without a fresh state would replay the crash. Errors that
// describe themselves as transient via a Transient() method (typhon's
// timeout and size-mismatch faults, the ALE remap's flux overshoot)
// and the hydro retryables (timestep collapse, tangled element,
// non-finite field) are transient on first sight; the Supervisor
// escalates repeats. Everything else is fatal.
func classifyError(err error) Class {
	if err == nil {
		return ClassTransient
	}
	var rp *typhon.RankPanicError
	if errors.As(err, &rp) {
		return ClassRankPersistent
	}
	var tr interface{ Transient() bool }
	if errors.As(err, &tr) {
		if tr.Transient() {
			return ClassTransient
		}
		return ClassRankPersistent
	}
	if hydro.Retryable(err) {
		return ClassTransient
	}
	return ClassFatal
}

// attribute extracts the rank a fault is attributable to: the panicked
// rank, or the *sender* of a malformed or missing message (the
// receiving rank is the victim, not the suspect). The second return is
// false when the error names no rank.
func attribute(err error) (int, bool) {
	var rp *typhon.RankPanicError
	if errors.As(err, &rp) {
		return rp.Rank, true
	}
	var sm *typhon.SizeMismatchError
	if errors.As(err, &sm) {
		return sm.From, true
	}
	var to *typhon.TimeoutError
	if errors.As(err, &to) {
		return to.From, true
	}
	return -1, false
}

// The ladder's budgets: up to retryBudget transient epoch retries and
// replaceBudget rank replacements across the run, and a rank's
// persistAfter-th attributable fault escalates to rank-persistent.
const (
	retryBudget   = 2
	replaceBudget = 1
	persistAfter  = 2
)

// Action is the rung of the ladder a Decision applies.
type Action int

const (
	// ActionRetry re-runs the epoch from every rank's step-start
	// snapshot.
	ActionRetry Action = iota
	// ActionReplace spawns a fresh incarnation of Decision.Rank from
	// its last in-memory Memento, then retries the epoch.
	ActionReplace
	// ActionAbort writes a final checkpoint and ends the run with the
	// root-cause error.
	ActionAbort
)

func (a Action) String() string {
	switch a {
	case ActionRetry:
		return "retry"
	case ActionReplace:
		return "replace"
	case ActionAbort:
		return "abort"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Decision is the supervisor's verdict on one epoch failure.
type Decision struct {
	Action Action
	Class  Class
	Rank   int // rank to replace (ActionReplace); attribution otherwise (-1 unknown)
}

// Supervisor applies the ladder to a stream of epoch outcomes. It is
// driver-side, single-goroutine decision logic: no communication, no
// locks. Metrics land in the registry passed to New and merge into the
// run's metrics.json alongside the per-rank registries.
type Supervisor struct {
	retries  int
	replaces int
	reparts  int

	// faultCount counts attributable faults per rank; incarnation is
	// the per-rank replacement generation (0 = original).
	faultCount  map[int]int
	incarnation map[int]int

	ctrRetry   *obs.Counter
	ctrReplace *obs.Counter
	ctrRepart  *obs.Counter
}

// New builds a Supervisor. The supervise_* counters are created
// eagerly so a clean run still publishes their zeros. reg may be nil
// (metrics discarded).
func New(reg *obs.Registry) *Supervisor {
	return &Supervisor{
		faultCount:  map[int]int{},
		incarnation: map[int]int{},
		ctrRetry:    reg.Counter("supervise_retry_total"),
		ctrReplace:  reg.Counter("supervise_replace_total"),
		ctrRepart:   reg.Counter("supervise_repart_total"),
	}
}

// Retries, Replaces and Reparts report the rungs spent so far.
func (sv *Supervisor) Retries() int  { return sv.retries }
func (sv *Supervisor) Replaces() int { return sv.replaces }
func (sv *Supervisor) Reparts() int  { return sv.reparts }

// Incarnation returns rank's replacement generation (0 = original).
func (sv *Supervisor) Incarnation(rank int) int { return sv.incarnation[rank] }

// Decide classifies err, applies history escalation and the budgets,
// and returns the rung to take. fallbackRank is the rank the driver
// attributes the fault to when the error itself names none (-1 for
// none); the recovery ladder can only replace an attributable rank.
func (sv *Supervisor) Decide(err error, fallbackRank int) Decision {
	class := classifyError(err)
	rank, ok := attribute(err)
	if !ok {
		rank = fallbackRank
	}
	if rank >= 0 {
		sv.faultCount[rank]++
		if class == ClassTransient && sv.faultCount[rank] >= persistAfter {
			// The same rank keeps producing faults that look transient
			// one at a time: escalate so the budget is not burnt on a
			// rank that will never come back on its own.
			class = ClassRankPersistent
		}
	}
	if class == ClassTransient && sv.retries >= retryBudget {
		if rank >= 0 {
			class = ClassRankPersistent
		} else {
			class = ClassFatal
		}
	}
	switch class {
	case ClassTransient:
		sv.retries++
		sv.ctrRetry.Inc()
		return Decision{Action: ActionRetry, Class: ClassTransient, Rank: rank}
	case ClassRankPersistent:
		if rank < 0 || sv.replaces >= replaceBudget {
			return Decision{Action: ActionAbort, Class: ClassFatal, Rank: rank}
		}
		sv.replaces++
		sv.incarnation[rank]++
		sv.ctrReplace.Inc()
		return Decision{Action: ActionReplace, Class: ClassRankPersistent, Rank: rank}
	}
	return Decision{Action: ActionAbort, Class: ClassFatal, Rank: rank}
}

// NoteRepart records one online repartition.
func (sv *Supervisor) NoteRepart() {
	sv.reparts++
	sv.ctrRepart.Inc()
}
