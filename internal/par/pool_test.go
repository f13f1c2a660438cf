package par

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// The tests below pin the worker handshake: the panic contract, the
// wake that must never be lost, and a width-one pool's inline path.
// TestCloseDegradesToInline and TestParallelDispatchZeroAllocs cover
// Close and allocation on both sides of the spin budget.

// busy spins the calling goroutine for d: serial work between regions,
// which (unlike a sleep) keeps the dispatching thread running the way a
// rank does between kernels.
func busy(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// catch runs f and returns the value it panicked with, or nil.
func catch(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// A panic on any chunk — the dispatcher's chunk 0 or a worker's — is
// re-raised on the dispatching goroutine with its own value, after the
// region's barrier, and the pool then runs a correct region.
func TestPanicOnAnyChunkReachesDispatcher(t *testing.T) {
	for _, threads := range []int{2, 3, 4} {
		p := New(threads)
		n := threads * minChunkIters
		for c := 0; c < threads; c++ {
			want := fmt.Sprintf("chunk %d of %d", c, threads)
			got := catch(func() {
				p.ForChunks(n, func(chunk, lo, hi int) {
					if chunk == c {
						panic(want)
					}
				})
			})
			if got != want {
				t.Fatalf("threads=%d: panic on chunk %d recovered %v, want %q", threads, c, got, want)
			}
			// The same through For, keyed on the chunk's start.
			lo0, _ := chunkRange(n, threads, c)
			got = catch(func() {
				p.For(n, func(lo, hi int) {
					if lo == lo0 {
						panic(want)
					}
				})
			})
			if got != want {
				t.Fatalf("threads=%d: For panic on chunk %d recovered %v, want %q", threads, c, got, want)
			}
			hits := make([]int, n)
			p.For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d: region after a panic visited %d %d times", threads, i, h)
				}
			}
		}
		// Two chunks panic: the lowest chunk's value wins, at any width.
		got := catch(func() {
			p.ReduceMin(n, func(i int) float64 {
				if i == 0 || i == n-1 {
					panic(i)
				}
				return 1
			})
		})
		if got != 0 {
			t.Fatalf("threads=%d: two panicking chunks recovered %v, want 0", threads, got)
		}
		if v, i := p.ReduceMin(n, func(i int) float64 { return float64(n - i) }); v != 1 || i != n-1 {
			t.Fatalf("threads=%d: ReduceMin after a panic = (%v,%d), want (1,%d)", threads, v, i, n-1)
		}
		p.Close()
	}
}

// No wake is ever lost: regions arrive back to back (the worker is
// spinning), after a gap inside the spin budget, and after one beyond it
// (the worker has parked or is racing to park), at widths that both use
// every worker and narrow some out. Every region must cover [0, n)
// exactly once with the static chunk split, each chunk must run once per
// region it is part of, and workers that sit a region out must not run. A lost wake is a hang, so the run is bounded.
func TestNoLostWakeup(t *testing.T) {
	const regions = 100_000
	gaps := []time.Duration{0, spinBudget / 4, spinBudget + 50*time.Microsecond}
	done := make(chan error, 1)
	go func() {
		region := 0
		for wi, threads := range []int{2, 3, 4, 8} {
			p := New(threads)
			sizes := []int{threads * minChunkIters, 2*minChunkIters + 7, minChunkIters - 1, threads*minChunkIters + 3}
			last, runs, want := make([]int, threads), make([]int, threads), make([]int, threads)
			lo, hi := make([]int, threads), make([]int, threads)
			body := func(c, l, h int) { last[c], lo[c], hi[c] = region, l, h; runs[c]++ }
			for r := 0; r < regions/4; r++ {
				region = wi*regions + r + 1
				switch {
				case r%97 == 0:
					busy(gaps[2])
				case r%11 == 0:
					busy(gaps[1])
				}
				n := sizes[r%len(sizes)]
				nch := p.NumChunks(n)
				p.ForChunks(n, body)
				prev := 0
				for c := 0; c < threads; c++ {
					ran := last[c] == region
					if ran {
						want[c]++
					}
					if ran != (c < nch) || runs[c] != want[c] {
						done <- fmt.Errorf("threads=%d region %d n=%d: chunk %d ran=%v (%d runs in %d regions) with %d chunks", threads, r, n, c, ran, runs[c], want[c], nch)
						return
					}
					if !ran {
						continue
					}
					if lo[c] != prev || hi[c] < lo[c] {
						done <- fmt.Errorf("threads=%d region %d n=%d: chunk %d is [%d,%d) after %d", threads, r, n, c, lo[c], hi[c], prev)
						return
					}
					prev = hi[c]
				}
				if prev != n {
					done <- fmt.Errorf("threads=%d region %d: chunks end at %d, want %d", threads, r, prev, n)
					return
				}
			}
			p.Close()
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("a region never completed: lost wakeup")
	}
}

// waitGoroutines polls until runtime.NumGoroutine() is at most want or
// the deadline passes, and returns the last count.
func waitGoroutines(want int, d time.Duration) int {
	deadline := time.Now().Add(d)
	for {
		got := runtime.NumGoroutine()
		if got <= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// settledGoroutines returns runtime.NumGoroutine() once it has held for
// 10 ms, so workers of pools that earlier tests closed are gone from it.
func settledGoroutines() int {
	n, since := runtime.NumGoroutine(), time.Now()
	for time.Since(since) < 10*time.Millisecond {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// A pool of width one (or less) never starts a worker, whatever it runs.
func TestSerialPoolSpawnsNoGoroutine(t *testing.T) {
	for _, threads := range []int{-1, 0, 1} {
		base := settledGoroutines()
		p := New(threads)
		p.For(1<<14, func(lo, hi int) {})
		p.ForChunks(1<<14, func(c, lo, hi int) {})
		p.ReduceMin(1<<14, func(i int) float64 { return float64(i) })
		p.ReduceMin2(1<<14, func(i int) (float64, float64) { return float64(i), 0 })
		if got := runtime.NumGoroutine(); got != base || p.workers != nil {
			t.Fatalf("New(%d): %d goroutines (base %d), %d workers", threads, got, base, len(p.workers))
		}
		p.Close()
	}
}

// spinMallocs is testing.AllocsPerRun without its GOMAXPROCS=1: at one
// processor a worker never spins, so the spinning path is counted under
// the scheduler the test runs with. It returns the fewest mallocs per
// call over three counts of runs calls, with the collector held off
// (a cycle empties the runtime's central sudog cache).
func spinMallocs(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	best := math.Inf(1)
	for k := 0; k < 3; k++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		best = math.Min(best, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return best
}

// The interleaving the stress test can only hope to hit: the dispatcher
// bumps a worker for region 1 and stalls before its wake; the worker
// serves region 1, spins out its budget and parks for region 2; then the
// stalled wake lands. It must not release the park, which is for a
// region not yet dispatched — only region 2's own wake may.
func TestLateWakeDoesNotReleaseNextPark(t *testing.T) {
	p := &Pool{}
	wk := &worker{wake: make(chan struct{}, 1)}
	first := wk.seq.Add(1)
	if !p.await(wk, 0) {
		t.Fatal("worker did not see region 1")
	}
	released := make(chan bool, 1)
	go func() { released <- p.await(wk, 1) }()
	for wk.parked.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	wk.wakeFor(first)
	select {
	case <-released:
		t.Fatal("region 1's late wake released the park for region 2")
	case <-time.After(20 * time.Millisecond):
	}
	wk.wakeFor(wk.seq.Add(1))
	select {
	case ok := <-released:
		if !ok {
			t.Fatal("park for region 2 ended as a close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("region 2's wake was lost")
	}
}
