// Package typhon is a from-scratch, in-process reimplementation of the
// role Typhon plays in BookLeaf: a distributed communication library for
// unstructured-mesh applications, layered on a message-passing backend.
// The paper's Typhon runs on MPI; here ranks are goroutines and
// point-to-point transfers are typed channels, preserving the
// communication structure the paper studies — halo exchanges of
// registered quantities at fixed phase points and a single global
// reduction per timestep for dt — while substituting the transport.
//
// Semantics mirror MPI closely enough for the hydro driver:
//
//   - Send copies the payload before enqueueing (no aliasing between
//     ranks), Recv blocks until a matching message arrives; messages
//     between a rank pair are delivered in order.
//   - AllReduceMin/Sum/MinLoc and Barrier are collectives over all
//     ranks; every rank must call them in the same order.
//
// Fault tolerance: the communicator carries an abort "poison" path
// (Comm.Abort). Once poisoned — by an explicit Abort, a recovered rank
// panic, a malformed message, or a receive timeout — every blocked or
// subsequent communication call returns an error matching ErrAborted
// instead of deadlocking, so one dead rank brings the others down
// cleanly. A FaultPlan (fault.go) injects message-level faults for
// resilience testing: dropped, truncated, corrupted or delayed
// messages, and rank panics mid-exchange.
//
// Deadlock note: channels are buffered, so the halo-exchange pattern
// "send to all neighbours, then receive from all neighbours" cannot
// deadlock regardless of rank scheduling.
package typhon

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"bookleaf/internal/obs"
)

// Comm is a communicator over a fixed number of ranks.
type Comm struct {
	n     int
	chans [][]chan []float64 // chans[src][dst]
	// ret[src][dst] carries spent pack buffers back from the receiver
	// (dst) to the sender (src) for reuse, so steady-state halo
	// exchanges allocate nothing. The channel hand-off doubles as the
	// happens-before edge: a sender only repacks a buffer the receiver
	// has explicitly finished unpacking.
	ret [][]chan []float64

	mu      sync.Mutex
	cond    *sync.Cond
	count   int
	gen     int
	redVals []float64
	redLocs []int

	// Abort machinery: abortCh is closed (and abort set, under mu) by
	// the first Abort call; blocked operations select on it.
	abortOnce sync.Once
	abortCh   chan struct{}
	abort     *AbortError

	// Injected fault plan and the receive deadline (fault.go).
	plan        *FaultPlan
	recvTimeout time.Duration

	// Per-rank traffic counters (each written only by its own rank's
	// goroutine; read after Run returns).
	sentMsgs  []int64
	sentWords []int64

	// Optional per-rank obs instruments (AttachObs), pre-resolved so
	// the send path pays a nil check and two integer adds, never a map
	// lookup. Each slot is touched only by its own rank's goroutine.
	obsMsgs  []*obs.Counter
	obsWords []*obs.Counter
	obsSizes []*obs.Histogram
}

// AttachObs publishes per-rank traffic metrics into the given
// registries (one per rank; nil entries disable that rank): counters
// comm_msgs_total and comm_words_total, and the halo_msg_words message
// size histogram. The counters always agree with Stats() — both are
// incremented at the same place in send — which the cross-validation
// tests assert. Call before Run.
func (c *Comm) AttachObs(regs []*obs.Registry) {
	if len(regs) != c.n {
		panic(fmt.Sprintf("typhon: AttachObs got %d registries for %d ranks", len(regs), c.n))
	}
	c.obsMsgs = make([]*obs.Counter, c.n)
	c.obsWords = make([]*obs.Counter, c.n)
	c.obsSizes = make([]*obs.Histogram, c.n)
	for i, reg := range regs {
		c.obsMsgs[i] = reg.Counter("comm_msgs_total")
		c.obsWords[i] = reg.Counter("comm_words_total")
		c.obsSizes[i] = reg.Histogram("halo_msg_words")
	}
}

// NewComm creates a communicator with n ranks.
func NewComm(n int) (*Comm, error) {
	if n < 1 {
		return nil, fmt.Errorf("typhon: communicator needs >= 1 rank, got %d", n)
	}
	c := &Comm{
		n: n, redVals: make([]float64, n), redLocs: make([]int, n),
		sentMsgs: make([]int64, n), sentWords: make([]int64, n),
		abortCh: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.chans = make([][]chan []float64, n)
	c.ret = make([][]chan []float64, n)
	for s := 0; s < n; s++ {
		c.chans[s] = make([]chan []float64, n)
		c.ret[s] = make([]chan []float64, n)
		for d := 0; d < n; d++ {
			if d != s {
				// Buffer depth 8: room for the messages of a few
				// exchanges per pair, so a send does not wait on a
				// receiver that has fallen an exchange or two behind.
				c.chans[s][d] = make(chan []float64, 8)
				c.ret[s][d] = make(chan []float64, 8)
			}
		}
	}
	return c, nil
}

// takeBuf draws a recycled buffer of length n for the src→dst route, or
// allocates one when the pool is empty or the drawn buffer is too
// small. Non-blocking, so an empty pool can never deadlock a send.
func (c *Comm) takeBuf(src, dst, n int) []float64 {
	select {
	case buf := <-c.ret[src][dst]:
		if cap(buf) >= n {
			return buf[:n]
		}
	default:
	}
	return make([]float64, n)
}

// giveBuf returns an unpacked buffer to its sender's pool. Non-blocking:
// a full pool drops the buffer to the garbage collector.
func (c *Comm) giveBuf(src, dst int, buf []float64) {
	select {
	case c.ret[src][dst] <- buf:
	default:
	}
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.n }

// Run spawns one goroutine per rank executing body and waits for all of
// them. A panicking rank is recovered, aborts the communicator (so
// peers blocked in Recv/Barrier unwind with ErrAborted instead of
// deadlocking), and is reported as a *RankPanicError in Run's return
// value. Run returns the first rank's panic error, or nil.
func (c *Comm) Run(body func(r *Rank)) error {
	var wg sync.WaitGroup
	wg.Add(c.n)
	panics := make([]error, c.n)
	for id := 0; id < c.n; id++ {
		go func(id int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					err := &RankPanicError{Rank: id, Value: p}
					panics[id] = err
					c.Abort(id, err)
				}
			}()
			body(&Rank{comm: c, id: id})
		}(id)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			return p
		}
	}
	return nil
}

// Rank is one process's handle on the communicator.
type Rank struct {
	comm *Comm
	id   int
}

// ID returns this rank's index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.comm.n }

// send counts, applies any armed fault, and enqueues an owned buffer.
func (r *Rank) send(dst int, buf []float64) error {
	c := r.comm
	c.sentMsgs[r.id]++
	c.sentWords[r.id] += int64(len(buf))
	if c.obsMsgs != nil {
		c.obsMsgs[r.id].Inc()
		c.obsWords[r.id].Add(int64(len(buf)))
		c.obsSizes[r.id].Observe(float64(len(buf)))
	}
	if f := c.faultFor(r.id, c.sentMsgs[r.id]); f != nil {
		switch f.Kind {
		case FaultPanic:
			panic(fmt.Sprintf("typhon: injected fault: rank %d panics sending message %d", r.id, c.sentMsgs[r.id]))
		case FaultDrop:
			return nil // counted, never delivered
		case FaultTruncate:
			if len(buf) > 0 {
				buf = buf[:len(buf)-1]
			}
		case FaultCorrupt:
			if len(buf) > 0 {
				buf[0] = math.NaN()
			}
		case FaultDelay:
			time.Sleep(f.Delay)
		}
	}
	select {
	case c.chans[r.id][dst] <- buf:
		return nil
	case <-c.abortCh:
		return c.abortErr()
	}
}

// Send copies data and enqueues it for dst. It returns an error
// matching ErrAborted if the communicator has been poisoned. Sending to
// self panics — local data never travels through the halo machinery.
func (r *Rank) Send(dst int, data []float64) error {
	if dst == r.id {
		panic("typhon: send to self")
	}
	buf := make([]float64, len(data))
	copy(buf, data)
	return r.send(dst, buf)
}

// Recv blocks until the next message from src arrives and returns it.
// It unblocks with an error matching ErrAborted when the communicator
// is poisoned, and with a *TimeoutError (also aborting the
// communicator) when a receive timeout is configured and expires.
func (r *Rank) Recv(src int) ([]float64, error) {
	if src == r.id {
		panic("typhon: recv from self")
	}
	c := r.comm
	ch := c.chans[src][r.id]
	var deadline <-chan time.Time
	if c.recvTimeout > 0 {
		t := time.NewTimer(c.recvTimeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case buf := <-ch:
		return buf, nil
	case <-c.abortCh:
		return nil, c.abortErr()
	case <-deadline:
		err := &TimeoutError{Rank: r.id, From: src, After: c.recvTimeout}
		c.Abort(r.id, err)
		return nil, err
	}
}

// barrier blocks until all ranks arrive. The mutex hand-off makes all
// writes before the barrier visible to all ranks after it. An abort
// releases every waiter with the abort error.
func (c *Comm) barrier() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.abort != nil {
		return c.abort
	}
	c.count++
	if c.count == c.n {
		c.count = 0
		c.gen++
		c.cond.Broadcast()
		return nil
	}
	g := c.gen
	for c.gen == g && c.abort == nil {
		c.cond.Wait()
	}
	if c.gen == g && c.abort != nil {
		// The barrier never completed; we were released by the abort.
		return c.abort
	}
	return nil
}

// Barrier blocks until every rank has called it, or returns an error
// matching ErrAborted if the communicator is poisoned.
func (r *Rank) Barrier() error { return r.comm.barrier() }

// AllReduceMin returns the global minimum of v across ranks.
func (r *Rank) AllReduceMin(v float64) (float64, error) {
	m, _, err := r.AllReduceMinLoc(v, r.id)
	return m, err
}

// AllReduceMinLoc returns the global minimum and the loc tag supplied
// by the rank holding it (ties resolve to the lowest rank), mirroring
// MPI_MINLOC — BookLeaf uses it to report the timestep-controlling
// element. On abort it returns the inputs unchanged and the abort
// error.
func (r *Rank) AllReduceMinLoc(v float64, loc int) (float64, int, error) {
	c := r.comm
	c.redVals[r.id] = v
	c.redLocs[r.id] = loc
	if err := c.barrier(); err != nil {
		return v, loc, err
	}
	min, ml := c.redVals[0], c.redLocs[0]
	for i := 1; i < c.n; i++ {
		if c.redVals[i] < min {
			min, ml = c.redVals[i], c.redLocs[i]
		}
	}
	// Second barrier so no rank overwrites redVals for a subsequent
	// reduction while others still read.
	if err := c.barrier(); err != nil {
		return v, loc, err
	}
	return min, ml, nil
}

// AllReduceSum returns the sum of v across ranks. The combination order
// is rank order on every rank, so all ranks get bit-identical results.
func (r *Rank) AllReduceSum(v float64) (float64, error) {
	c := r.comm
	c.redVals[r.id] = v
	if err := c.barrier(); err != nil {
		return v, err
	}
	var s float64
	for i := 0; i < c.n; i++ {
		s += c.redVals[i]
	}
	if err := c.barrier(); err != nil {
		return v, err
	}
	return s, nil
}

// Stats returns the total messages and float64 words sent across all
// ranks since the communicator was created — the comm-volume metrics a
// halo-exchange study reports.
func (c *Comm) Stats() (msgs, words int64) {
	for i := 0; i < c.n; i++ {
		msgs += c.sentMsgs[i]
		words += c.sentWords[i]
	}
	return msgs, words
}

// Halo describes one registered exchange pattern: for each neighbour
// rank, which local indices to send and which local (ghost) indices to
// fill on receive. Matching Send/Recv lists on the two ends must have
// equal lengths and consistent entity order; partition.Split builds
// them that way.
type Halo struct {
	SendTo   map[int][]int
	RecvFrom map[int][]int
	// neighbours in deterministic order
	sendOrder []int
	recvOrder []int
}

// NewHalo builds a Halo from send/recv index lists keyed by rank.
func NewHalo(sendTo, recvFrom map[int][]int) *Halo {
	h := &Halo{SendTo: sendTo, RecvFrom: recvFrom}
	for dst := range sendTo {
		h.sendOrder = append(h.sendOrder, dst)
	}
	for src := range recvFrom {
		h.recvOrder = append(h.recvOrder, src)
	}
	sort.Ints(h.sendOrder)
	sort.Ints(h.recvOrder)
	return h
}

// Exchange refreshes ghost entries of the given fields: for each
// neighbour the send-list entries of every field are packed into one
// message; received messages are unpacked into the recv-list entries.
// stride is the number of consecutive array slots per entity (1 for
// nodal/element scalars, 8 for per-corner force pairs, etc.).
//
// Every message travels in a pack buffer recycled per route (takeBuf,
// giveBuf), so repeated exchanges allocate nothing in the steady state.
// Faults armed by InjectFaults apply at the send site.
//
// A received message whose size does not match the halo pattern is a
// data fault, not a programming error: Exchange aborts the communicator
// and returns a *SizeMismatchError, so a single malformed message fails
// the whole run cleanly instead of crashing the process. Receive
// timeouts and aborts return the errors Recv does.
func (r *Rank) Exchange(h *Halo, stride int, fields ...[]float64) error {
	if stride < 1 {
		panic("typhon: stride must be >= 1")
	}
	c := r.comm
	for _, dst := range h.sendOrder {
		idx := h.SendTo[dst]
		buf := c.takeBuf(r.id, dst, len(idx)*stride*len(fields))
		pos := 0
		for _, f := range fields {
			for _, i := range idx {
				pos += copy(buf[pos:], f[i*stride:(i+1)*stride])
			}
		}
		if err := r.send(dst, buf); err != nil {
			return err
		}
	}
	for _, src := range h.recvOrder {
		idx := h.RecvFrom[src]
		buf, err := r.Recv(src)
		if err != nil {
			return err
		}
		if want := len(idx) * stride * len(fields); len(buf) != want {
			err := &SizeMismatchError{From: src, To: r.id, Got: len(buf), Want: want}
			c.Abort(r.id, err)
			return err
		}
		pos := 0
		for _, f := range fields {
			for _, i := range idx {
				pos += copy(f[i*stride:(i+1)*stride], buf[pos:])
			}
		}
		c.giveBuf(src, r.id, buf)
	}
	return nil
}
