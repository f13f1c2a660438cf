// Package par is BookLeaf's intra-rank threading substrate, standing in
// for the OpenMP host parallelism of the reference implementation. A
// Pool models one "NUMA region" worth of threads; For splits an index
// range into balanced contiguous chunks (the static schedule OpenMP
// would use) and ReduceMin/ReduceMin2 provide the explicit loop
// reductions the paper's authors had to write by hand after the Fortran
// workshare directive proved to serialise MINVAL/MINLOC.
//
// Workers are persistent: they are spawned once, on the first parallel
// dispatch, and live for the life of the pool. They follow OpenMP's
// "active wait" policy: between regions a worker spins on its own
// atomic sequence number for spinBudget, yielding the processor every
// yieldEvery polls, and only then parks on its wake channel. A region
// that arrives while its workers spin costs an atomic increment per
// worker and a spin on an atomic pending count — no goroutine wake, no
// futex; only a parked worker is sent a wake. With GOMAXPROCS=1 a
// spinning worker could only delay the goroutine it waits for, so
// workers park at once. Reduction partials land in cache-line-padded
// slots owned by the pool, so chunks never false-share and no per-call
// slice is allocated. A For/ForChunks/Reduce* call with a pre-bound
// body therefore performs zero heap allocations — the property the
// hydro kernels build their zero-allocation steady state on.
//
// A panic in a body is caught on whichever goroutine ran the chunk. The
// region still completes its barrier, and the panic value of the
// lowest-numbered panicking chunk is re-raised on the dispatching
// goroutine, so a caller sees the same panic at every width and the
// pool stays usable.
//
// A Pool with Threads <= 1 executes everything inline with zero
// goroutine overhead; this is the "flat MPI" configuration where each
// rank is single-threaded. The hybrid configuration uses Threads > 1.
//
// Chunking guarantee: an n-iteration loop over t threads is split into
// contiguous ascending chunks whose sizes differ by at most one — the
// first n%t chunks carry ceil(n/t) iterations, the remainder floor(n/t).
// Loops too small to amortise the hand-off/barrier round trip are first
// narrowed so every chunk carries at least minChunkIters iterations
// (collapsing to inline execution below that). The split depends only
// on (n, Threads), never on scheduling, which is what makes per-chunk
// reductions reproducible run to run.
//
// Pools are NOT safe for concurrent dispatch: one goroutine (the rank)
// owns the pool and issues one parallel region at a time, exactly like
// an OpenMP thread team. Call Close when the rank retires: it retires
// spinning and parked workers and waits for them to exit, and a closed
// pool degrades to inline serial execution.
//
// The acceleration kernel in BookLeaf contains a corner-force→node
// scatter data dependency that the paper left unparallelised ("it has
// currently been left unchanged, adversely affecting OpenMP
// performance"). Serial reproduces that choice for the ablation path:
// it always runs on the calling goroutine, whatever the pool size.
package par

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// minSlot is a per-chunk MINLOC partial, padded to a cache line so
// neighbouring chunks never false-share during a reduction.
type minSlot struct {
	v   float64
	arg int
	_   [48]byte
}

// min2Slot is a per-chunk partial of a fused two-operand MINLOC
// reduction (ReduceMin2), padded to a cache line.
type min2Slot struct {
	v1, v2 float64
	a1, a2 int
	_      [32]byte
}

// worker is one persistent worker's handshake state, padded to a cache
// line so a worker's spin never contends with its neighbours' flags.
type worker struct {
	// seq is bumped by the dispatcher once per region this worker takes
	// part in; the worker spins on it.
	seq atomic.Uint64
	// parked is set by the worker just before it parks, to the sequence
	// number it waits for, and is 0 otherwise. Whichever of the worker
	// and the dispatcher clears it (CAS seq→0) decides whether a wake is
	// sent, so a wake is never lost or doubled. Keying it by sequence
	// keeps a dispatcher that is slow between its bump and its CAS from
	// waking the worker's next park for a region already served.
	parked atomic.Uint64
	wake   chan struct{}
	// panicked is the value the worker's chunk panicked with, or nil;
	// written before the pending decrement, read after the barrier.
	panicked any
	_        [24]byte
}

// pendingCount is the region's completion count, on a cache line of its
// own: every worker writes it, the dispatcher spins on it.
type pendingCount struct {
	atomic.Int32
	_ [60]byte
}

// Pool executes loops across a fixed number of logical threads.
// The zero value is a serial pool.
type Pool struct {
	// Threads is the number of chunks loops are split into. Values
	// below 2 mean fully inline serial execution. Treat as read-only
	// once the pool has executed a parallel region.
	Threads int

	startOnce sync.Once
	closeOnce sync.Once
	closed    atomic.Bool
	workers   []worker // worker w serves chunk w+1
	exited    sync.WaitGroup
	pending   pendingCount

	// Current parallel region, armed by the dispatcher before the
	// sequence bumps (which publish it to the workers). Exactly one of
	// bodyR / bodyC is non-nil during a region.
	n, nch int
	bodyR  func(lo, hi int)
	bodyC  func(chunk, lo, hi int)

	// Reduction state: redF is the operand, the slots hold padded
	// per-chunk partials, and minBody is the chunk body pre-bound at
	// startup so reductions allocate nothing per call.
	redF     func(i int) float64
	minSlots []minSlot
	minBody  func(chunk, lo, hi int)

	// Fused two-operand reduction state (ReduceMin2): one sweep
	// evaluates both operands, so kernels that feed two MINLOC
	// reductions from the same gathers stream their arrays once.
	redF2     func(i int) (float64, float64)
	min2Slots []min2Slot
	min2Body  func(chunk, lo, hi int)
}

// Serial is the single-threaded pool used by flat-MPI ranks.
var Serial = &Pool{Threads: 1}

// New returns a pool with n threads (minimum 1). Workers are spawned
// lazily on the first parallel dispatch, so a pool that only ever runs
// serial-sized loops costs nothing.
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{Threads: n}
}

// minChunkIters is the smallest chunk worth handing to a worker. A
// region costs ~1 µs of hand-off and barrier while the workers spin
// (BenchmarkDispatchEmpty at 2 threads) and ~15 µs more once they have
// parked (BenchmarkDispatchAfterGap); a chunk below roughly this many
// kernel iterations does less work than its own dispatch, which is why
// tiny meshes used to run *slower* at higher thread counts. The value
// keeps the 120×120 bench mesh (14400 elements → 3600 per chunk at 4
// threads) fully parallel while collapsing sweeps of a few dozen
// elements to inline execution.
const minChunkIters = 128

// chunks returns the number of chunks to split an n-iteration loop
// into: Threads, narrowed so no chunk carries fewer than minChunkIters
// iterations. A pure function of (n, p.Threads), so the split — and
// with it every per-chunk reduction — is reproducible run to run.
func (p *Pool) chunks(n int) int {
	t := p.Threads
	if t < 1 {
		t = 1
	}
	if t > n {
		t = n
	}
	if t > 1 && n/t < minChunkIters {
		t = n / minChunkIters
		if t < 1 {
			t = 1
		}
	}
	return t
}

// chunkRange returns chunk c of an n-iteration loop split into t
// balanced contiguous chunks: the first n%t chunks carry one extra
// iteration, so sizes differ by at most one and chunk c covers
// [lo, hi) with hi(c) == lo(c+1).
func chunkRange(n, t, c int) (lo, hi int) {
	q, r := n/t, n%t
	if c < r {
		lo = c * (q + 1)
		return lo, lo + q + 1
	}
	lo = r*(q+1) + (c-r)*q
	return lo, lo + q
}

// spinBudget is how long an idle worker spins for the next region
// before it parks, and yieldEvery how many polls it makes between
// yields of the processor, so a spinner never holds a P from runnable
// goroutines for more than a few dozen loads. The budget comes from
// BenchmarkDispatchAfterGap on a 2-core host: a 14400-iteration region
// at 2 threads costs 10–14 µs while its worker still spins, whether the
// serial gap before it was 0, 20 or 100 µs (one thread takes ~13 µs),
// and ~27 µs once the worker has parked (gap 1 ms). The serial
// stretches of a step (the health sweep, the snapshot copies, a halo
// exchange) are tens of µs. At 200 µs the Eulerian Sod 1600×8 step
// finds its worker parked in under 7 % of hand-offs, against 10–17 %
// at 20–50 µs. A gap past the budget pays the ~15 µs wake on top of
// at least 200 µs of serial work; spinning longer would buy little and
// keep an idle pool burning a core for longer.
const (
	spinBudget = 200 * time.Microsecond
	yieldEvery = 32
)

// ensureStarted spawns the persistent workers and pre-binds the
// reduction bodies. Called on the first parallel dispatch.
func (p *Pool) ensureStarted() {
	p.startOnce.Do(func() {
		t := p.Threads
		p.workers = make([]worker, t-1)
		p.minSlots = make([]minSlot, t)
		p.minBody = func(c, lo, hi int) {
			v, a := reduceMinRange(lo, hi, p.redF)
			p.minSlots[c].v, p.minSlots[c].arg = v, a
		}
		p.min2Slots = make([]min2Slot, t)
		p.min2Body = func(c, lo, hi int) {
			v1, a1, v2, a2 := reduceMin2Range(lo, hi, p.redF2)
			sl := &p.min2Slots[c]
			sl.v1, sl.a1, sl.v2, sl.a2 = v1, a1, v2, a2
		}
		p.exited.Add(len(p.workers))
		for w := range p.workers {
			p.workers[w].wake = make(chan struct{}, 1)
			go p.worker(w)
		}
	})
}

// worker serves its static chunk (worker w always serves chunk w+1 — the
// dispatching goroutine is thread 0) once per region it is handed,
// until the pool closes.
func (p *Pool) worker(w int) {
	defer p.exited.Done()
	wk := &p.workers[w]
	for seen := uint64(0); p.await(wk, seen); seen++ {
		wk.panicked = p.runChunk(w + 1)
		p.pending.Add(-1)
	}
}

// await blocks worker wk until the dispatcher moves its sequence past
// seen (true) or the pool closes (false): a bounded spin, then a park.
// Before parking the worker sets parked to seen+1 and re-reads its
// sequence; the dispatcher bumps the sequence to seen+1 before it tries
// to clear parked from that value. So either the worker sees the bump,
// or the dispatcher sees the flag, and exactly one of their CASes wins:
// a dispatcher that wins sends the one wake this park consumes, a
// worker that wins returns without one.
func (p *Pool) await(wk *worker, seen uint64) bool {
	if runtime.GOMAXPROCS(0) > 1 {
		start := time.Now()
		for i := 1; wk.seq.Load() == seen; i++ {
			if i%yieldEvery == 0 {
				if p.closed.Load() {
					return false
				}
				if time.Since(start) > spinBudget {
					break
				}
				runtime.Gosched()
			}
		}
	}
	next := seen + 1
	wk.parked.Store(next)
	if wk.seq.Load() != seen && wk.parked.CompareAndSwap(next, 0) {
		return true
	}
	_, ok := <-wk.wake // Close closes the channel
	return ok
}

// wakeFor sends the wake for region next, the sequence number the
// dispatcher has just bumped wk to, if wk is parked waiting for it.
func (wk *worker) wakeFor(next uint64) {
	if wk.parked.CompareAndSwap(next, 0) {
		wk.wake <- struct{}{}
	}
}

// runChunk runs chunk c of the armed region and returns the value the
// body panicked with, or nil.
func (p *Pool) runChunk(c int) (panicked any) {
	defer func() { panicked = recover() }()
	lo, hi := chunkRange(p.n, p.nch, c)
	if body := p.bodyR; body != nil {
		body(lo, hi)
	} else {
		p.bodyC(c, lo, hi)
	}
	return nil
}

// run dispatches the armed body across t chunks of [0, n): workers
// 0..t-2 are handed chunks 1..t-1 while the calling goroutine runs
// chunk 0, then the call spins until every chunk completes. The
// sequence bumps publish the armed region to the workers; the pending
// decrements publish the workers' writes back to the caller. Workers
// past t-2 sit the region out and are not touched. A panic in any chunk
// is re-raised here, after the barrier, once the region is disarmed.
func (p *Pool) run(n, t int) {
	p.ensureStarted()
	p.n, p.nch = n, t
	p.pending.Store(int32(t - 1))
	for w := 0; w < t-1; w++ {
		wk := &p.workers[w]
		wk.wakeFor(wk.seq.Add(1))
	}
	panicked := p.runChunk(0)
	for i := 1; p.pending.Load() != 0; i++ {
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	p.bodyR, p.bodyC, p.redF, p.redF2 = nil, nil, nil, nil
	for w := 0; w < t-1; w++ {
		if panicked == nil {
			panicked = p.workers[w].panicked
		}
		p.workers[w].panicked = nil
	}
	if panicked != nil {
		panic(panicked)
	}
}

// Close retires the persistent workers, spinning or parked, and
// returns once they have exited. Subsequent calls on the pool execute
// inline serially; Close is idempotent and must not race an in-flight
// parallel region.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.closed.Store(true)
		for w := range p.workers {
			close(p.workers[w].wake)
		}
		p.exited.Wait()
	})
}

// For executes body(lo, hi) over disjoint contiguous subranges covering
// [0, n). With a serial pool the body runs once inline as body(0, n).
func (p *Pool) For(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	t := p.chunks(n)
	if t == 1 || p.closed.Load() {
		body(0, n)
		return
	}
	p.bodyR, p.bodyC = body, nil
	p.run(n, t)
}

// NumChunks reports how many chunks For and ForChunks split an
// n-iteration loop into.
func (p *Pool) NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	return p.chunks(n)
}

// ForChunks is For with the chunk index passed to the body — the
// standard pattern for race-free per-chunk reductions.
func (p *Pool) ForChunks(n int, body func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	t := p.chunks(n)
	if t == 1 || p.closed.Load() {
		body(0, 0, n)
		return
	}
	p.bodyR, p.bodyC = nil, body
	p.run(n, t)
}

// Serial executes body(0, n) on the calling goroutine regardless of the
// pool size. It models the unparallelised scatter kernels.
func (p *Pool) Serial(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	body(0, n)
}

// ReduceMin computes the minimum of f(i) for i in [0, n) together with
// the index attaining it (the MINVAL/MINLOC expansion). Partials are
// combined in chunk order and ties resolve to the lowest index, so the
// result is bitwise-deterministic across pool sizes.
func (p *Pool) ReduceMin(n int, f func(i int) float64) (min float64, argmin int) {
	if n <= 0 {
		return math.Inf(1), -1
	}
	t := p.chunks(n)
	if t == 1 || p.closed.Load() {
		return reduceMinRange(0, n, f)
	}
	p.ensureStarted()
	p.redF = f
	p.bodyR, p.bodyC = nil, p.minBody
	p.run(n, t)
	min, argmin = p.minSlots[0].v, p.minSlots[0].arg
	for c := 1; c < t; c++ {
		if p.minSlots[c].v < min {
			min, argmin = p.minSlots[c].v, p.minSlots[c].arg
		}
	}
	return min, argmin
}

func reduceMinRange(lo, hi int, f func(i int) float64) (float64, int) {
	min, arg := f(lo), lo
	for i := lo + 1; i < hi; i++ {
		if v := f(i); v < min {
			min, arg = v, i
		}
	}
	return min, arg
}

// ReduceMin2 is a fused pair of MINLOC reductions: one sweep evaluates
// f(i) = (a_i, b_i) and returns the minimum and argmin of each
// component. The chunk split, the ascending per-chunk scan with
// strict-less updates, and the chunk-order combination are identical to
// two separate ReduceMin calls over the same n, so each component's
// (min, argmin) is bitwise-identical to what ReduceMin would return —
// the fusion only halves the number of array sweeps feeding the
// operands (the getdt CFL + divergence pair shares its coordinate
// gathers this way).
func (p *Pool) ReduceMin2(n int, f func(i int) (float64, float64)) (min1 float64, arg1 int, min2 float64, arg2 int) {
	if n <= 0 {
		inf := math.Inf(1)
		return inf, -1, inf, -1
	}
	t := p.chunks(n)
	if t == 1 || p.closed.Load() {
		return reduceMin2Range(0, n, f)
	}
	p.ensureStarted()
	p.redF2 = f
	p.bodyR, p.bodyC = nil, p.min2Body
	p.run(n, t)
	s0 := &p.min2Slots[0]
	min1, arg1, min2, arg2 = s0.v1, s0.a1, s0.v2, s0.a2
	for c := 1; c < t; c++ {
		sl := &p.min2Slots[c]
		if sl.v1 < min1 {
			min1, arg1 = sl.v1, sl.a1
		}
		if sl.v2 < min2 {
			min2, arg2 = sl.v2, sl.a2
		}
	}
	return min1, arg1, min2, arg2
}

func reduceMin2Range(lo, hi int, f func(i int) (float64, float64)) (float64, int, float64, int) {
	v1, v2 := f(lo)
	a1, a2 := lo, lo
	for i := lo + 1; i < hi; i++ {
		w1, w2 := f(i)
		if w1 < v1 {
			v1, a1 = w1, i
		}
		if w2 < v2 {
			v2, a2 = w2, i
		}
	}
	return v1, a1, v2, a2
}
