package typhon

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// An abort raised on one rank must release peers blocked in Recv and
// Barrier with an error matching ErrAborted — no deadlock.
func TestAbortUnblocksRecvAndBarrier(t *testing.T) {
	c, _ := NewComm(3)
	cause := fmt.Errorf("node died")
	errs := make([]error, 3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(func(r *Rank) {
			switch r.ID() {
			case 0:
				_, errs[0] = r.Recv(2) // never sent
			case 1:
				errs[1] = r.Barrier() // never completed
			case 2:
				time.Sleep(20 * time.Millisecond)
				r.Abort(cause)
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("abort did not unblock peers")
	}
	for id := 0; id < 2; id++ {
		if errs[id] == nil || !errors.Is(errs[id], ErrAborted) {
			t.Fatalf("rank %d error = %v, want ErrAborted", id, errs[id])
		}
		var ae *AbortError
		if !errors.As(errs[id], &ae) || ae.Rank != 2 || !errors.Is(ae, ErrAborted) {
			t.Fatalf("rank %d error = %#v, want AbortError from rank 2", id, errs[id])
		}
	}
	if got := c.abortErr(); got == nil || !errors.Is(got, cause) {
		t.Fatalf("abortErr() = %v, want cause %v", got, cause)
	}
}

// A truncated halo message must surface as a returned
// *SizeMismatchError that poisons the communicator — not a panic.
func TestTruncatedMessageReturnsSizeMismatch(t *testing.T) {
	c, _ := NewComm(2)
	c.InjectFaults(&FaultPlan{Faults: []Fault{{Rank: 0, Msg: 1, Kind: FaultTruncate}}})
	errs := make([]error, 2)
	c.Run(func(r *Rank) {
		other := 1 - r.ID()
		h := NewHalo(map[int][]int{other: {0}}, map[int][]int{other: {1}})
		field := []float64{float64(r.ID()), -1}
		errs[r.ID()] = r.Exchange(h, 1, field)
	})
	// Rank 1 receives the short message and must report the mismatch.
	var sm *SizeMismatchError
	if !errors.As(errs[1], &sm) {
		t.Fatalf("rank 1 error = %v, want *SizeMismatchError", errs[1])
	}
	if sm.From != 0 || sm.Got != 0 || sm.Want != 1 {
		t.Fatalf("mismatch detail = %+v", sm)
	}
	if c.abortErr() == nil {
		t.Fatal("size mismatch did not poison the communicator")
	}
}

// An oversized halo message — rank 0 sends two entries where rank 1's
// recv list expects one, a send/recv list mismatch no injected fault
// models — is the same data fault as a short one: a *SizeMismatchError
// naming the sender, and a poisoned communicator.
func TestOversizedMessageReturnsSizeMismatch(t *testing.T) {
	c, _ := NewComm(2)
	errs := make([]error, 2)
	c.Run(func(r *Rank) {
		send := map[int][]int{1: {0, 1}}
		if r.ID() == 1 {
			send = map[int][]int{0: {0}}
		}
		h := NewHalo(send, map[int][]int{1 - r.ID(): {2}})
		field := []float64{float64(r.ID()), float64(r.ID()), -1}
		errs[r.ID()] = r.Exchange(h, 1, field)
	})
	var sm *SizeMismatchError
	if !errors.As(errs[1], &sm) {
		t.Fatalf("rank 1 error = %v, want *SizeMismatchError", errs[1])
	}
	if sm.From != 0 || sm.To != 1 || sm.Got != 2 || sm.Want != 1 {
		t.Fatalf("mismatch detail = %+v", sm)
	}
	if errs[0] != nil && !errors.Is(errs[0], ErrAborted) {
		t.Fatalf("rank 0 error = %v", errs[0])
	}
	if c.abortErr() == nil {
		t.Fatal("size mismatch did not poison the communicator")
	}
}

// A dropped message is detected by the receive timeout, which aborts
// the communicator so every rank unwinds.
func TestDroppedMessageTimesOut(t *testing.T) {
	c, _ := NewComm(2)
	c.InjectFaults(&FaultPlan{Faults: []Fault{{Rank: 0, Msg: 1, Kind: FaultDrop}}})
	c.SetRecvTimeout(50 * time.Millisecond)
	errs := make([]error, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(func(r *Rank) {
			other := 1 - r.ID()
			h := NewHalo(map[int][]int{other: {0}}, map[int][]int{other: {1}})
			field := []float64{float64(r.ID()), -1}
			errs[r.ID()] = r.Exchange(h, 1, field)
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("dropped message deadlocked the exchange")
	}
	var te *TimeoutError
	if !errors.As(errs[1], &te) {
		t.Fatalf("rank 1 error = %v, want *TimeoutError", errs[1])
	}
	if errs[0] != nil && !errors.Is(errs[0], ErrAborted) {
		t.Fatalf("rank 0 error = %v", errs[0])
	}
}

// A corrupted message still delivers (with NaN payload) — the transport
// cannot detect it; the application-level health sentinel must. The
// corrupted buffer goes back to its sender's pool like any other, so a
// second exchange repacks it: no stale NaN may survive the repack.
func TestCorruptedMessageDeliversNaN(t *testing.T) {
	c, _ := NewComm(2)
	c.InjectFaults(&FaultPlan{Faults: []Fault{{Rank: 0, Msg: 1, Kind: FaultCorrupt}}})
	c.Run(func(r *Rank) {
		other := 1 - r.ID()
		h := NewHalo(map[int][]int{other: {0}}, map[int][]int{other: {1}})
		field := []float64{float64(r.ID() + 1), -1}
		if err := r.Exchange(h, 1, field); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		if r.ID() == 1 && !math.IsNaN(field[1]) {
			t.Errorf("rank 1 ghost = %v, want NaN from corrupted message", field[1])
		}
		if r.ID() == 0 && field[1] != 2 {
			t.Errorf("rank 0 ghost = %v, want 2 (reverse direction clean)", field[1])
		}
		field[0], field[1] = float64(r.ID()+5), -1
		if err := r.Exchange(h, 1, field); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		if want := float64(other + 5); field[1] != want {
			t.Errorf("rank %d ghost after a recycled buffer = %v, want %v", r.ID(), field[1], want)
		}
	})
}

// A delayed message arrives late but intact.
func TestDelayedMessageArrives(t *testing.T) {
	c, _ := NewComm(2)
	c.InjectFaults(&FaultPlan{Faults: []Fault{{Rank: 0, Msg: 1, Kind: FaultDelay, Delay: 30 * time.Millisecond}}})
	start := time.Now()
	c.Run(func(r *Rank) {
		other := 1 - r.ID()
		h := NewHalo(map[int][]int{other: {0}}, map[int][]int{other: {1}})
		field := []float64{float64(r.ID() + 1), -1}
		if err := r.Exchange(h, 1, field); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
		if r.ID() == 1 && field[1] != 1 {
			t.Errorf("rank 1 ghost = %v, want 1", field[1])
		}
	})
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("delay fault did not delay")
	}
}

// An injected panic mid-exchange must end Run with a *RankPanicError
// and release the peers — the no-deadlock guarantee under rank death.
func TestInjectedPanicAbortsExchange(t *testing.T) {
	c, _ := NewComm(4)
	c.InjectFaults(&FaultPlan{Faults: []Fault{{Rank: 2, Msg: 1, Kind: FaultPanic}}})
	done := make(chan error, 1)
	go func() {
		done <- c.Run(func(r *Rank) {
			right := (r.ID() + 1) % 4
			left := (r.ID() + 3) % 4
			h := NewHalo(map[int][]int{right: {0}}, map[int][]int{left: {1}})
			field := []float64{float64(r.ID()), -1}
			for i := 0; i < 10; i++ {
				if err := r.Exchange(h, 1, field); err != nil {
					return
				}
			}
		})
	}()
	select {
	case err := <-done:
		var pe *RankPanicError
		if !errors.As(err, &pe) || pe.Rank != 2 {
			t.Fatalf("Run error = %v, want panic on rank 2", err)
		}
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("panic error does not match ErrAborted: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("injected panic deadlocked the communicator")
	}
}

// TestInjectedFaultsOnRing runs every fault kind through repeated
// exchanges on a ring at several rank counts, the fault landing on rank
// 0's third message, after the pack buffers have started to recycle.
// Every rank must unwind, and each fault must surface as its typed
// error: a drop as the receive timeout that poisons the communicator, a
// truncation as the size mismatch rank 1 detects, a panic as Run's
// *RankPanicError; a corruption as one NaN ghost and a delay as nothing
// at all, with every later exchange clean.
func TestInjectedFaultsOnRing(t *testing.T) {
	kinds := []struct {
		name string
		kind FaultKind
	}{{"drop", FaultDrop}, {"truncate", FaultTruncate}, {"corrupt", FaultCorrupt}, {"delay", FaultDelay}, {"panic", FaultPanic}}
	for _, k := range kinds {
		for _, n := range []int{2, 4, 7} {
			t.Run(fmt.Sprintf("%s/ranks=%d", k.name, n), func(t *testing.T) {
				testFaultOnRing(t, k.kind, n)
			})
		}
	}
}

func testFaultOnRing(t *testing.T, kind FaultKind, n int) {
	const iters, faultMsg = 6, 3 // one message per rank per exchange
	c, _ := NewComm(n)
	c.InjectFaults(&FaultPlan{Faults: []Fault{{Rank: 0, Msg: faultMsg, Kind: kind, Delay: 20 * time.Millisecond}}})
	if kind == FaultDrop {
		c.SetRecvTimeout(50 * time.Millisecond)
	}
	errs := make([]error, n)
	ghosts := make([][]float64, n) // the two ghost words, per exchange
	done := make(chan error, 1)
	go func() {
		done <- c.Run(func(r *Rank) {
			right, left := (r.ID()+1)%n, (r.ID()+n-1)%n
			h := NewHalo(map[int][]int{right: {0}}, map[int][]int{left: {1}})
			field := make([]float64, 4) // stride 2: entity 0 owned, 1 ghost
			for i := 0; i < iters; i++ {
				field[0], field[1], field[2], field[3] = float64(100*i+r.ID()), float64(r.ID())+0.5, -1, -1
				if errs[r.ID()] = r.Exchange(h, 2, field); errs[r.ID()] != nil {
					return
				}
				ghosts[r.ID()] = append(ghosts[r.ID()], field[2], field[3])
			}
		})
	}()
	var runErr error
	select {
	case runErr = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the fault deadlocked the ring")
	}
	// A rank whose remaining messages were already buffered finishes
	// cleanly; every other one, bar the one the fault names, unwinds
	// with the abort.
	aborted := func(skip int) {
		t.Helper()
		for id := 0; id < n; id++ {
			var te *TimeoutError
			if id != skip && errs[id] != nil && !errors.Is(errs[id], ErrAborted) && !(kind == FaultDrop && errors.As(errs[id], &te)) {
				t.Errorf("rank %d error = %v, want nil or one matching ErrAborted", id, errs[id])
			}
		}
	}
	switch kind {
	case FaultDrop:
		var te *TimeoutError
		if !errors.As(c.abortErr(), &te) {
			t.Fatalf("abort cause = %v, want *TimeoutError", c.abortErr())
		}
		aborted(-1)
	case FaultTruncate:
		var sm *SizeMismatchError
		if !errors.As(errs[1], &sm) || *sm != (SizeMismatchError{From: 0, To: 1, Got: 1, Want: 2}) {
			t.Fatalf("rank 1 error = %v, want the size mismatch of rank 0's message", errs[1])
		}
		if !errors.As(c.abortErr(), &sm) {
			t.Fatalf("abort cause = %v, want *SizeMismatchError", c.abortErr())
		}
		aborted(1)
	case FaultPanic:
		var pe *RankPanicError
		if !errors.As(runErr, &pe) || pe.Rank != 0 {
			t.Fatalf("Run error = %v, want rank 0's panic", runErr)
		}
		aborted(0)
	case FaultCorrupt, FaultDelay:
		if runErr != nil || c.abortErr() != nil {
			t.Fatalf("Run error %v, abort %v: a %v fault must not poison the communicator", runErr, c.abortErr(), kind)
		}
		for id := 0; id < n; id++ {
			left := (id + n - 1) % n
			for i := 0; i < iters; i++ {
				want0, want1 := float64(100*i+left), float64(left)+0.5
				got0, got1 := ghosts[id][2*i], ghosts[id][2*i+1]
				if kind == FaultCorrupt && id == 1 && i == faultMsg-1 {
					if !math.IsNaN(got0) || got1 != want1 {
						t.Errorf("rank 1 exchange %d ghost = (%v, %v), want (NaN, %v)", i, got0, got1, want1)
					}
					continue
				}
				if got0 != want0 || got1 != want1 {
					t.Errorf("rank %d exchange %d ghost = (%v, %v), want (%v, %v)", id, i, got0, got1, want0, want1)
				}
			}
		}
	}
}

// Collectives called after an abort must fail fast, not hang.
func TestCollectivesFailFastAfterAbort(t *testing.T) {
	c, _ := NewComm(2)
	c.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Abort(fmt.Errorf("poisoned"))
		}
		// Whichever rank arrives first blocks briefly, then both see
		// the abort.
		if err := r.Barrier(); err == nil {
			t.Errorf("rank %d: Barrier succeeded after abort", r.ID())
		}
		if _, err := r.AllReduceMin(1); err == nil {
			t.Errorf("rank %d: AllReduceMin succeeded after abort", r.ID())
		}
		if _, err := r.AllReduceSum(1); err == nil {
			t.Errorf("rank %d: AllReduceSum succeeded after abort", r.ID())
		}
		if err := r.Send(1-r.ID(), []float64{1}); err != nil && !errors.Is(err, ErrAborted) {
			t.Errorf("rank %d: Send error = %v", r.ID(), err)
		}
	})
}
