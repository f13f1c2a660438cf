package bookleaf

import (
	"errors"
	"fmt"
	"sync/atomic"

	"bookleaf/internal/checkpoint"
	"bookleaf/internal/obs"
)

// ErrCanceled is matched (via errors.Is) by the error Run returns when
// an attached Control's Cancel request was observed: the run stopped at
// a step boundary and its state was discarded.
var ErrCanceled = errors.New("run canceled")

// PreemptedError is the error Run returns when an attached Control's
// Preempt request was observed. It is not a failure: the run stopped at
// a step boundary (a collective healthy point of the rank loop) and
// carries everything needed to continue later — an in-memory
// checkpoint snapshot (partition-independent, so the resumed leg may
// use any rank count) and the metrics the interrupted leg accumulated.
// Resuming via Config.ResumeFrom reproduces the uninterrupted run
// bit for bit.
type PreemptedError struct {
	// Snapshot is the in-memory restart dump; pass it to
	// Config.ResumeFrom to continue the run.
	Snapshot *checkpoint.Snapshot
	// Step and Time locate the preemption point.
	Step int
	Time float64
	// Obs is the interrupted leg's merged metrics snapshot; merge it
	// with the resumed leg's Result.Obs to recover the totals an
	// uninterrupted run would have reported.
	Obs *obs.Snapshot
}

func (e *PreemptedError) Error() string {
	return fmt.Sprintf("run preempted at step %d (t=%v)", e.Step, e.Time)
}

// Control request codes, ordered by strength: a Cancel always wins
// over a pending Preempt.
const (
	ctlNone int32 = iota
	ctlPreempt
	ctlCancel
)

// RunStatus is a point-in-time progress report of a running simulation.
type RunStatus struct {
	Step int
	Time float64
	TEnd float64
}

// Control is the live handle a supervisor (cmd/bleaf-served) holds on a
// running simulation: per-step progress and periodic metrics snapshots
// flow out, Cancel/Preempt requests flow in. Attach one via
// Config.Control before calling Run; a Control is single-use — make a
// fresh one for every Run (including resumed legs).
//
// All methods are safe for concurrent use and nil-safe, so the driver
// wires them unconditionally: with no Control attached the steady-state
// step stays allocation-free.
//
// Requests are observed at step boundaries — the next collective
// healthy point, so every rank stops at the same step. Cancel makes Run
// return an error matching ErrCanceled; Preempt makes it return a
// *PreemptedError carrying an in-memory checkpoint snapshot to
// resume from.
type Control struct {
	action  atomic.Int32
	status  atomic.Pointer[RunStatus]
	metrics atomic.Pointer[obs.Snapshot]
}

// Cancel requests the run stop at the next step boundary, discarding
// its state. Overrides a pending Preempt.
func (c *Control) Cancel() {
	if c == nil {
		return
	}
	c.action.Store(ctlCancel)
}

// Preempt requests the run stop at the next step boundary and hand back
// an in-memory checkpoint to resume from. A pending Cancel wins.
func (c *Control) Preempt() {
	if c == nil {
		return
	}
	c.action.CompareAndSwap(ctlNone, ctlPreempt)
}

// Status returns the latest progress report, or ok=false before the
// run publishes its first one.
func (c *Control) Status() (st RunStatus, ok bool) {
	if c == nil {
		return RunStatus{}, false
	}
	p := c.status.Load()
	if p == nil {
		return RunStatus{}, false
	}
	return *p, true
}

// Metrics returns the most recent mid-run metrics snapshot (nil before
// the first cadence point). The returned snapshot is immutable.
func (c *Control) Metrics() *obs.Snapshot {
	if c == nil {
		return nil
	}
	return c.metrics.Load()
}

// poll returns the pending request code.
func (c *Control) poll() int32 {
	if c == nil {
		return ctlNone
	}
	return c.action.Load()
}

// noteProgress publishes a progress report; called by rank 0 at every
// healthy point.
func (c *Control) noteProgress(step int, t, tEnd float64) {
	if c == nil {
		return
	}
	c.status.Store(&RunStatus{Step: step, Time: t, TEnd: tEnd})
}

// snapshotEvery is the step cadence of the mid-run metrics snapshots
// published through Metrics. The published snapshot is rank id 0's
// registry — which also holds the probe records, and keeps counting
// across a replacement or a repartition — not the cross-rank merge,
// which only exists after the run.
const snapshotEvery = 16

// snapshotDue reports whether a metrics snapshot should be published
// after the given completed step.
func (c *Control) snapshotDue(step int) bool {
	return c != nil && step%snapshotEvery == 0
}

// publishMetrics publishes a mid-run snapshot; the caller must own the
// registry the snapshot came from (the rank loop calls it from the
// goroutine that owns reg, so the export itself never races). A
// published snapshot is never mutated again: Metrics hands the same
// object to every reader.
func (c *Control) publishMetrics(s *obs.Snapshot) {
	if c == nil {
		return
	}
	c.metrics.Store(s)
}
