package typhon

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestNewCommRejectsZeroRanks(t *testing.T) {
	if _, err := NewComm(0); err == nil {
		t.Fatal("0 ranks accepted")
	}
}

func TestRunSpawnsAllRanks(t *testing.T) {
	c, _ := NewComm(5)
	var mask int32
	if err := c.Run(func(r *Rank) {
		atomic.OrInt32(&mask, 1<<r.ID())
		if r.Size() != 5 {
			t.Errorf("Size = %d, want 5", r.Size())
		}
	}); err != nil {
		t.Fatal(err)
	}
	if mask != 31 {
		t.Fatalf("rank mask = %b, want 11111", mask)
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	c, _ := NewComm(2)
	c.Run(func(r *Rank) {
		if r.ID() == 0 {
			must(t, r.Send(1, []float64{1, 2, 3}))
			got, err := r.Recv(1)
			must(t, err)
			if len(got) != 1 || got[0] != 9 {
				t.Errorf("rank 0 received %v", got)
			}
		} else {
			got, err := r.Recv(0)
			must(t, err)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("rank 1 received %v", got)
			}
			must(t, r.Send(0, []float64{9}))
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	c, _ := NewComm(2)
	c.Run(func(r *Rank) {
		if r.ID() == 0 {
			data := []float64{42}
			must(t, r.Send(1, data))
			data[0] = -1 // mutate after send; receiver must see 42
			r.Barrier()
		} else {
			got, err := r.Recv(0)
			must(t, err)
			r.Barrier()
			if got[0] != 42 {
				t.Errorf("received %v, want 42 (payload aliased?)", got[0])
			}
		}
	})
}

func TestMessageOrderPreserved(t *testing.T) {
	c, _ := NewComm(2)
	c.Run(func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < 10; i++ {
				must(t, r.Send(1, []float64{float64(i)}))
			}
		} else {
			for i := 0; i < 10; i++ {
				got, err := r.Recv(0)
				must(t, err)
				if got[0] != float64(i) {
					t.Errorf("message %d out of order: %v", i, got[0])
					return
				}
			}
		}
	})
}

func TestSelfSendFailsRun(t *testing.T) {
	c, _ := NewComm(1)
	err := c.Run(func(r *Rank) { r.Send(0, nil) })
	if err == nil {
		t.Fatal("self-send did not fail the run")
	}
	var pe *RankPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("self-send error %T, want *RankPanicError", err)
	}
}

func TestAllReduceMin(t *testing.T) {
	c, _ := NewComm(7)
	c.Run(func(r *Rank) {
		v := float64(10 - r.ID())
		m, err := r.AllReduceMin(v)
		must(t, err)
		if m != 4 {
			t.Errorf("rank %d: min = %v, want 4", r.ID(), m)
		}
	})
}

func TestAllReduceMinLoc(t *testing.T) {
	c, _ := NewComm(4)
	c.Run(func(r *Rank) {
		vals := []float64{5, 1, 3, 1}
		m, loc, err := r.AllReduceMinLoc(vals[r.ID()], 100+r.ID())
		must(t, err)
		if m != 1 || loc != 101 {
			t.Errorf("rank %d: minloc = (%v,%d), want (1,101)", r.ID(), m, loc)
		}
	})
}

func TestAllReduceSumDeterministic(t *testing.T) {
	c, _ := NewComm(6)
	results := make([]float64, 6)
	c.Run(func(r *Rank) {
		s, err := r.AllReduceSum(0.1 * float64(r.ID()+1))
		must(t, err)
		results[r.ID()] = s
	})
	for i := 1; i < 6; i++ {
		if results[i] != results[0] {
			t.Fatalf("sum differs between ranks: %v vs %v", results[i], results[0])
		}
	}
	if math.Abs(results[0]-2.1) > 1e-12 {
		t.Fatalf("sum = %v, want 2.1", results[0])
	}
}

func TestRepeatedReductionsDoNotInterfere(t *testing.T) {
	c, _ := NewComm(4)
	c.Run(func(r *Rank) {
		for i := 0; i < 50; i++ {
			want := float64(i)
			got, err := r.AllReduceMin(want + float64(r.ID()))
			must(t, err)
			if got != want {
				t.Errorf("iteration %d: min = %v, want %v", i, got, want)
				return
			}
		}
	})
}

func TestBarrierSynchronises(t *testing.T) {
	c, _ := NewComm(8)
	var before, wrong int32
	c.Run(func(r *Rank) {
		atomic.AddInt32(&before, 1)
		must(t, r.Barrier())
		if atomic.LoadInt32(&before) != 8 {
			atomic.AddInt32(&wrong, 1)
		}
	})
	if wrong != 0 {
		t.Fatalf("%d ranks passed the barrier before all arrived", wrong)
	}
}

func TestExchangeScalarHalo(t *testing.T) {
	// Two ranks, each owning 3 entries plus 1 ghost mirroring the
	// neighbour's entry 2.
	c, _ := NewComm(2)
	c.Run(func(r *Rank) {
		field := []float64{0, 0, 0, -1} // 3 owned + 1 ghost
		for i := 0; i < 3; i++ {
			field[i] = float64(10*r.ID() + i)
		}
		other := 1 - r.ID()
		h := NewHalo(
			map[int][]int{other: {2}},
			map[int][]int{other: {3}},
		)
		must(t, r.Exchange(h, 1, field))
		want := float64(10*other + 2)
		if field[3] != want {
			t.Errorf("rank %d ghost = %v, want %v", r.ID(), field[3], want)
		}
	})
}

func TestExchangeStrided(t *testing.T) {
	// Per-entity stride 2 (e.g. x/y pairs packed).
	c, _ := NewComm(2)
	c.Run(func(r *Rank) {
		field := make([]float64, 4) // entity 0 owned, entity 1 ghost
		field[0] = float64(r.ID()) + 0.25
		field[1] = float64(r.ID()) + 0.5
		other := 1 - r.ID()
		h := NewHalo(map[int][]int{other: {0}}, map[int][]int{other: {1}})
		must(t, r.Exchange(h, 2, field))
		if field[2] != float64(other)+0.25 || field[3] != float64(other)+0.5 {
			t.Errorf("rank %d strided ghost = %v", r.ID(), field[2:])
		}
	})
}

func TestExchangeMultipleFields(t *testing.T) {
	c, _ := NewComm(2)
	c.Run(func(r *Rank) {
		a := []float64{float64(r.ID() + 1), 0}
		b := []float64{float64(r.ID() + 10), 0}
		other := 1 - r.ID()
		h := NewHalo(map[int][]int{other: {0}}, map[int][]int{other: {1}})
		must(t, r.Exchange(h, 1, a, b))
		if a[1] != float64(other+1) || b[1] != float64(other+10) {
			t.Errorf("rank %d multi-field ghosts = %v %v", r.ID(), a[1], b[1])
		}
	})
}

func TestExchangeRing(t *testing.T) {
	// 4 ranks in a ring; each sends its owned value right and receives
	// from the left. Repeated to catch ordering bugs.
	c, _ := NewComm(4)
	c.Run(func(r *Rank) {
		right := (r.ID() + 1) % 4
		left := (r.ID() + 3) % 4
		h := NewHalo(map[int][]int{right: {0}}, map[int][]int{left: {1}})
		field := []float64{0, -1}
		for iter := 0; iter < 20; iter++ {
			field[0] = float64(100*iter + r.ID())
			must(t, r.Exchange(h, 1, field))
			if field[1] != float64(100*iter+left) {
				t.Errorf("iter %d rank %d got %v", iter, r.ID(), field[1])
				return
			}
		}
	})
}

// A stride below one is a programming error, not a data fault: it
// panics, and Run reports the panic.
func TestExchangeStridePanics(t *testing.T) {
	c, _ := NewComm(2)
	err := c.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Exchange(NewHalo(map[int][]int{}, map[int][]int{}), 0, []float64{1})
		}
	})
	var pe *RankPanicError
	if !errors.As(err, &pe) || pe.Rank != 0 {
		t.Fatalf("Run error = %v, want rank 0's panic", err)
	}
}

// Repeated exchanges recycle their per-route pack buffers: after a
// warm-up pass the steady state allocates nothing, for one field or
// several, one entry per message or several.
func TestBlockingExchangeSteadyStateAllocFree(t *testing.T) {
	for _, shape := range []struct{ stride, fields, entries int }{{4, 1, 1}, {4, 2, 2}, {1, 3, 4}, {8, 1, 3}} {
		t.Run(fmt.Sprintf("stride=%d/fields=%d/entries=%d", shape.stride, shape.fields, shape.entries), func(t *testing.T) {
			c, _ := NewComm(2)
			c.Run(func(r *Rank) {
				other := 1 - r.ID()
				send, recv := make([]int, shape.entries), make([]int, shape.entries)
				for i := range send {
					send[i], recv[i] = i, shape.entries+i
				}
				h := NewHalo(map[int][]int{other: send}, map[int][]int{other: recv})
				fields := make([][]float64, shape.fields)
				for f := range fields {
					fields[f] = make([]float64, 2*shape.entries*shape.stride)
				}
				exchange := func() {
					if err := r.Exchange(h, shape.stride, fields...); err != nil {
						t.Errorf("rank %d: %v", r.ID(), err)
					}
				}
				for i := 0; i < 4; i++ {
					exchange() // saturate the return-channel pool
				}
				if r.ID() == 0 {
					// AllocsPerRun counts the whole process's allocations;
					// rank 1 only echoes, so measuring on rank 0 covers
					// both ends.
					if allocs := testing.AllocsPerRun(50, exchange); allocs != 0 {
						t.Errorf("steady-state exchange allocates %v times per run", allocs)
					}
				} else {
					for i := 0; i < 51; i++ { // AllocsPerRun runs 1 warm-up + 50 measured
						exchange()
					}
				}
			})
		})
	}
}

// sendOrder/recvOrder must come out ascending no matter how the
// neighbour maps were populated — the property the deterministic wire
// schedule (and with it bitwise reproducibility) rests on.
func TestHaloOrderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		nbrs := rng.Perm(16)[:4+rng.Intn(8)]
		sendTo := map[int][]int{}
		recvFrom := map[int][]int{}
		for _, nb := range nbrs {
			sendTo[nb] = []int{0}
			recvFrom[nb] = []int{1}
		}
		h := NewHalo(sendTo, recvFrom)
		for i := 1; i < len(h.sendOrder); i++ {
			if h.sendOrder[i-1] >= h.sendOrder[i] {
				t.Fatalf("trial %d: sendOrder not strictly ascending: %v", trial, h.sendOrder)
			}
		}
		for i := 1; i < len(h.recvOrder); i++ {
			if h.recvOrder[i-1] >= h.recvOrder[i] {
				t.Fatalf("trial %d: recvOrder not strictly ascending: %v", trial, h.recvOrder)
			}
		}
		if len(h.sendOrder) != len(nbrs) || len(h.recvOrder) != len(nbrs) {
			t.Fatalf("trial %d: order length mismatch", trial)
		}
	}
}

func TestRunReportsPanicAsError(t *testing.T) {
	c, _ := NewComm(2)
	recvErrs := make([]error, 2)
	err := c.Run(func(r *Rank) {
		if r.ID() == 1 {
			panic("rank failure")
		}
		// Rank 0 blocks in Recv; the panic must unblock it.
		_, recvErrs[0] = r.Recv(1)
	})
	if err == nil {
		t.Fatal("panic not reported from rank")
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("panic error %v does not match ErrAborted", err)
	}
	if recvErrs[0] == nil || !errors.Is(recvErrs[0], ErrAborted) {
		t.Fatalf("peer Recv error = %v, want ErrAborted", recvErrs[0])
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
