package typhon

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrAborted is the sentinel matched (via errors.Is) by every error the
// communicator returns once it has been poisoned by Abort: blocked
// Recv, Barrier and AllReduce calls unblock and return an error
// wrapping this sentinel instead of deadlocking, which is how a dead
// rank brings its peers down cleanly.
var ErrAborted = errors.New("typhon: communicator aborted")

// AbortError is the error surfaced to ranks observing an abort raised
// elsewhere. It matches ErrAborted and unwraps to the root cause.
type AbortError struct {
	Rank  int   // rank that poisoned the communicator
	Cause error // root cause supplied to Abort
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("typhon: aborted by rank %d: %v", e.Rank, e.Cause)
}

func (e *AbortError) Unwrap() error { return e.Cause }

func (e *AbortError) Is(target error) bool { return target == ErrAborted }

// RankPanicError wraps a panic recovered from a rank goroutine. The
// panic aborts the communicator, so it matches ErrAborted.
type RankPanicError struct {
	Rank  int
	Value any
}

func (e *RankPanicError) Error() string {
	return fmt.Sprintf("typhon: rank %d panicked: %v", e.Rank, e.Value)
}

func (e *RankPanicError) Is(target error) bool { return target == ErrAborted }

// Transient reports false: the panicked goroutine is gone, so retrying
// the same incarnation can only replay the crash. A supervisor must
// replace the rank instead.
func (e *RankPanicError) Transient() bool { return false }

// SizeMismatchError reports a halo message whose length does not match
// the registered exchange pattern — a corrupted or truncated transfer.
// The receiving rank aborts the communicator when it detects one.
type SizeMismatchError struct {
	From, To  int
	Got, Want int
}

func (e *SizeMismatchError) Error() string {
	return fmt.Sprintf("typhon: exchange size mismatch from rank %d to rank %d: got %d words, want %d",
		e.From, e.To, e.Got, e.Want)
}

// Transient reports true: a single malformed message may be a one-off
// corruption worth one retry. A supervisor escalates repeats from the
// same sender to rank-persistent via its per-rank fault history.
func (e *SizeMismatchError) Transient() bool { return true }

// TimeoutError reports a Recv that waited longer than the configured
// receive timeout — the in-process analogue of MPI fault detection by
// heartbeat. The timing-out rank aborts the communicator.
type TimeoutError struct {
	Rank, From int
	After      time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("typhon: rank %d timed out after %v waiting for a message from rank %d",
		e.Rank, e.After, e.From)
}

// Transient reports true: a timeout may be a one-off stall (a dropped
// message, a descheduled sender). Repeats from the same sender escalate
// through the supervisor's per-rank fault history.
func (e *TimeoutError) Transient() bool { return true }

// FaultKind enumerates injectable message faults.
type FaultKind int

const (
	// FaultDrop silently discards the message (the receiver needs a
	// receive timeout to detect it).
	FaultDrop FaultKind = iota + 1
	// FaultTruncate delivers the message one word short, tripping the
	// receiver's size check.
	FaultTruncate
	// FaultCorrupt replaces the first word of the payload with NaN.
	FaultCorrupt
	// FaultDelay delays delivery by Delay.
	FaultDelay
	// FaultPanic panics the sending rank mid-exchange.
	FaultPanic
)

// Fault schedules one injected fault: it fires when rank Rank sends its
// Msg-th message (1-based, counted across Send and Exchange).
type Fault struct {
	Rank  int
	Msg   int64
	Kind  FaultKind
	Delay time.Duration
	// Once makes the fault fire at most once across every communicator
	// armed with the same FaultPlan. Per-rank message counters reset
	// with each communicator, so without Once a fault re-fires in every
	// epoch that replays the matching send — after a rollback as after
	// a supervision retry — the model of a *persistent* rank fault.
	// Once models a transient one.
	Once bool
}

// FaultPlan is a set of scheduled message faults. A plan may be armed
// on several communicators in turn (the supervisor rebuilds the
// communicator per recovery epoch); the Once bookkeeping is shared
// across all of them and is safe for concurrent ranks.
type FaultPlan struct {
	Faults []Fault

	mu    sync.Mutex
	fired map[int]bool
}

// match returns the armed fault matching the n-th message of rank, or
// nil, consuming one-shot faults as it goes.
func (p *FaultPlan) match(rank int, n int64) *Fault {
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.Rank != rank || f.Msg != n {
			continue
		}
		if f.Once {
			p.mu.Lock()
			done := p.fired[i]
			if !done {
				if p.fired == nil {
					p.fired = make(map[int]bool)
				}
				p.fired[i] = true
			}
			p.mu.Unlock()
			if done {
				continue
			}
		}
		return f
	}
	return nil
}

// InjectFaults arms a fault plan. Call before Run; a nil plan clears it.
// The plan is held by reference: arming the same plan on successive
// communicators shares its one-shot state.
func (c *Comm) InjectFaults(p *FaultPlan) { c.plan = p }

// SetRecvTimeout bounds every Recv wait; zero (the default) waits
// forever. A timed-out Recv aborts the communicator so all ranks
// unwind. Call before Run.
func (c *Comm) SetRecvTimeout(d time.Duration) { c.recvTimeout = d }

// faultFor returns the armed fault matching the n-th message of rank,
// or nil. Within one communicator each fault fires at most once because
// the per-rank message counter only ever increases; across
// communicators sharing a plan, Once-faults fire at most once in total.
func (c *Comm) faultFor(rank int, n int64) *Fault {
	if c.plan == nil {
		return nil
	}
	return c.plan.match(rank, n)
}

// Abort poisons the communicator on behalf of rank: every blocked or
// future Recv, Barrier, AllReduce and Exchange returns an error
// matching ErrAborted. The first cause wins; later calls are no-ops.
func (c *Comm) Abort(rank int, cause error) {
	c.abortOnce.Do(func() {
		c.mu.Lock()
		c.abort = &AbortError{Rank: rank, Cause: cause}
		close(c.abortCh)
		c.cond.Broadcast()
		c.mu.Unlock()
	})
}

// Abort poisons the communicator from this rank (see Comm.Abort).
func (r *Rank) Abort(cause error) { r.comm.Abort(r.id, cause) }

// abortErr returns the abort error, nil while the communicator is
// healthy. The send and receive paths call it once abortCh is closed.
func (c *Comm) abortErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.abort == nil {
		return nil // not a typed nil *AbortError
	}
	return c.abort
}
