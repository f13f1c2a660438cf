package par

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, threads := range []int{0, 1, 2, 3, 7, 16} {
		p := New(threads)
		for _, n := range []int{0, 1, 2, 5, 100, 1023} {
			hits := make([]int32, n)
			p.For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: index %d visited %d times", threads, n, i, h)
				}
			}
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	p := New(4)
	called := false
	p.For(0, func(lo, hi int) { called = true })
	p.For(-3, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestSerialRunsInline(t *testing.T) {
	p := New(8)
	calls := 0
	p.Serial(10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("Serial range = [%d,%d), want [0,10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("Serial body called %d times, want 1", calls)
	}
}

func TestReduceMinMatchesSerial(t *testing.T) {
	vals := []float64{5, 3, 8, 3, -1, 7, -1, 2}
	want, wantArg := math.Inf(1), -1
	for i, v := range vals {
		if v < want {
			want, wantArg = v, i
		}
	}
	for _, threads := range []int{1, 2, 3, 8, 20} {
		got, arg := New(threads).ReduceMin(len(vals), func(i int) float64 { return vals[i] })
		if got != want || arg != wantArg {
			t.Fatalf("threads=%d: ReduceMin = (%v,%d), want (%v,%d)", threads, got, arg, want, wantArg)
		}
	}
}

func TestReduceMinEmpty(t *testing.T) {
	v, i := New(4).ReduceMin(0, func(int) float64 { return 0 })
	if !math.IsInf(v, 1) || i != -1 {
		t.Fatalf("empty ReduceMin = (%v,%d), want (+Inf,-1)", v, i)
	}
}

func TestReduceMinTieBreaksLowestIndex(t *testing.T) {
	vals := []float64{4, 1, 2, 1, 1}
	for _, threads := range []int{1, 2, 5} {
		_, arg := New(threads).ReduceMin(len(vals), func(i int) float64 { return vals[i] })
		if arg != 1 {
			t.Fatalf("threads=%d: argmin = %d, want 1", threads, arg)
		}
	}
}

func TestReduceMinPropertyAgainstSerial(t *testing.T) {
	f := func(raw []float64, threads uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) {
				v = 0
			}
			vals[i] = v
		}
		sv, si := New(1).ReduceMin(len(vals), func(i int) float64 { return vals[i] })
		pv, pi := New(int(threads%16)+1).ReduceMin(len(vals), func(i int) float64 { return vals[i] })
		return sv == pv && si == pi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewClampsToOne(t *testing.T) {
	if New(-5).Threads != 1 {
		t.Fatal("New(-5) should clamp to 1 thread")
	}
}

func TestChunkRangeBalanced(t *testing.T) {
	for _, tc := range []struct{ n, t int }{
		{10, 3}, {7, 7}, {100, 16}, {5, 2}, {1, 1}, {13, 4},
	} {
		q, r := tc.n/tc.t, tc.n%tc.t
		prevHi := 0
		for c := 0; c < tc.t; c++ {
			lo, hi := chunkRange(tc.n, tc.t, c)
			if lo != prevHi {
				t.Fatalf("n=%d t=%d: chunk %d starts at %d, want %d", tc.n, tc.t, c, lo, prevHi)
			}
			size := hi - lo
			want := q
			if c < r {
				want = q + 1
			}
			if size != want {
				t.Fatalf("n=%d t=%d: chunk %d has %d iterations, want %d", tc.n, tc.t, c, size, want)
			}
			prevHi = hi
		}
		if prevHi != tc.n {
			t.Fatalf("n=%d t=%d: chunks end at %d", tc.n, tc.t, prevHi)
		}
	}
}

func TestChunkRangePropertyContiguousCover(t *testing.T) {
	f := func(nRaw, tRaw uint16) bool {
		n := int(nRaw%5000) + 1
		tt := int(tRaw%64) + 1
		if tt > n {
			tt = n
		}
		prevHi := 0
		maxSize, minSize := 0, n+1
		for c := 0; c < tt; c++ {
			lo, hi := chunkRange(n, tt, c)
			if lo != prevHi || hi < lo {
				return false
			}
			if hi-lo > maxSize {
				maxSize = hi - lo
			}
			if hi-lo < minSize {
				minSize = hi - lo
			}
			prevHi = hi
		}
		return prevHi == n && maxSize-minSize <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkersPersistAcrossRegions checks the tentpole property of the
// pool: the worker goroutines are spawned once and reused, not
// re-spawned per parallel region.
func TestWorkersPersistAcrossRegions(t *testing.T) {
	p := New(4)
	defer p.Close()
	body := func(lo, hi int) {}
	p.For(1024, body) // spawn workers (big enough to beat the chunk threshold)
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		p.For(1024, body)
		p.ForChunks(1024, func(c, lo, hi int) {})
		p.ReduceMin(1024, func(i int) float64 { return 1 })
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("goroutine count grew from %d to %d across 600 regions", base, got)
	}
}

// Close retires the workers, whether they are spinning (right after a
// region) or parked (long after one), before it returns, and the closed
// pool runs everything inline.
func TestCloseDegradesToInline(t *testing.T) {
	for _, state := range []string{"spinning", "parked"} {
		base := settledGoroutines()
		p := New(4)
		p.For(1024, func(lo, hi int) {}) // start workers
		if got := runtime.NumGoroutine(); got != base+3 {
			t.Fatalf("%s: %d goroutines after the first region, want %d", state, got, base+3)
		}
		for w := range p.workers {
			for state == "parked" && p.workers[w].parked.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		p.Close()
		p.Close() // idempotent
		if got := waitGoroutines(base, 100*time.Millisecond); got > base {
			t.Fatalf("%s: %d goroutines 100 ms after Close, want %d", state, got, base)
		}
		calls := 0
		p.For(1024, func(lo, hi int) {
			calls++
			if lo != 0 || hi != 1024 {
				t.Fatalf("%s: closed pool ran chunk [%d,%d), want [0,1024)", state, lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("%s: closed pool ran body %d times, want 1 inline call", state, calls)
		}
		if v, i := p.ReduceMin(3, func(i int) float64 { return float64(i) }); v != 0 || i != 0 {
			t.Fatalf("closed ReduceMin = (%v,%d), want (0,0)", v, i)
		}
		p.ForChunks(8, func(c, lo, hi int) {
			if c != 0 || lo != 0 || hi != 8 {
				t.Fatalf("closed ForChunks chunk (%d,[%d,%d)), want (0,[0,8))", c, lo, hi)
			}
		})
		v1, a1, v2, a2 := p.ReduceMin2(3, func(i int) (float64, float64) { return float64(i), float64(2 - i) })
		if v1 != 0 || a1 != 0 || v2 != 0 || a2 != 2 {
			t.Fatalf("closed ReduceMin2 = (%v,%d,%v,%d), want (0,0,0,2)", v1, a1, v2, a2)
		}
	}
}

func TestCloseUnstartedPool(t *testing.T) {
	p := New(8)
	p.Close() // never dispatched: must not panic
	p.For(10, func(lo, hi int) {})
}

func TestForChunksIndicesMatchChunkRange(t *testing.T) {
	for _, threads := range []int{2, 3, 8} {
		p := New(threads)
		n := 997
		seen := make([]bool, p.NumChunks(n))
		var mu sync.Mutex
		p.ForChunks(n, func(c, lo, hi int) {
			wlo, whi := chunkRange(n, len(seen), c)
			if lo != wlo || hi != whi {
				t.Errorf("threads=%d chunk %d = [%d,%d), want [%d,%d)", threads, c, lo, hi, wlo, whi)
			}
			mu.Lock()
			seen[c] = true
			mu.Unlock()
		})
		p.Close()
		for c, ok := range seen {
			if !ok {
				t.Fatalf("threads=%d: chunk %d never ran", threads, c)
			}
		}
	}
}

// TestChunkThresholdNarrowsSmallLoops pins the dispatch-amortisation
// rule: a loop whose per-chunk share would fall below minChunkIters is
// split into fewer, fuller chunks — down to one (inline) — while loops
// at or above the threshold keep the full thread count. The narrowing
// depends only on (n, Threads), preserving run-to-run reproducibility.
func TestChunkThresholdNarrowsSmallLoops(t *testing.T) {
	for _, tc := range []struct{ threads, n, want int }{
		{4, 100, 1},                     // boundary-band sized: inline
		{4, 4 * minChunkIters, 4},       // exactly at threshold: full width
		{4, 4*minChunkIters - 1, 3},     // just under: one fewer chunk
		{9, 1000, 1000 / minChunkIters}, // narrowed, every chunk >= threshold
		{1, 5, 1},
		{8, 8 * minChunkIters, 8},
	} {
		if got := New(tc.threads).chunks(tc.n); got != tc.want {
			t.Errorf("chunks(n=%d, threads=%d) = %d, want %d", tc.n, tc.threads, got, tc.want)
		}
	}
	// Narrowed splits still leave every chunk at or above the threshold.
	for n := 1; n < 4096; n += 37 {
		for _, threads := range []int{2, 3, 4, 8} {
			t2 := New(threads).chunks(n)
			if t2 > 1 && n/t2 < minChunkIters {
				t.Fatalf("chunks(n=%d, threads=%d) = %d leaves %d iterations per chunk", n, threads, t2, n/t2)
			}
		}
	}
}

// TestParallelDispatchZeroAllocs pins the zero-allocation property the
// hydro kernels rely on: with a pre-bound body, For / ForChunks /
// ReduceMin / ReduceMin2 allocate nothing per call — back
// to back, where the workers are still spinning, and after a gap past
// the spin budget, where they have parked and must be woken.
// AllocsPerRun runs at GOMAXPROCS=1, where workers never spin, so the
// spinning path is also counted at the test's own GOMAXPROCS, for a
// pool that fits it. There a worker the OS deschedules past the budget
// parks, and a parked worker released on another P than it parked on
// makes the runtime's per-P sudog caches allocate now and again. That is
// the scheduler's, so the count there only rules out an allocation per
// call, and the park path is counted at AllocsPerRun's one P.
func TestParallelDispatchZeroAllocs(t *testing.T) {
	for _, threads := range []int{2, 4} {
		p := New(threads)
		n := threads * minChunkIters
		body := func(lo, hi int) {}
		cbody := func(c, lo, hi int) {}
		red := func(i int) float64 { return float64(i) }
		red2 := func(i int) (float64, float64) { return float64(i), float64(-i) }
		p.For(n, body) // warm up: spawn workers, size slots
		for _, c := range []struct {
			name string
			call func()
		}{
			{"For", func() { p.For(n, body) }},
			{"ForChunks", func() { p.ForChunks(n, cbody) }},
			{"ReduceMin", func() { p.ReduceMin(n, red) }},
			{"ReduceMin2", func() { p.ReduceMin2(n, red2) }},
		} {
			after := func() { busy(spinBudget + 100*time.Microsecond); c.call() }
			if a := testing.AllocsPerRun(50, c.call); a != 0 {
				t.Errorf("threads=%d: %s allocates %v per call", threads, c.name, a)
			}
			if a := testing.AllocsPerRun(10, after); a != 0 {
				t.Errorf("threads=%d: %s after a gap allocates %v per call", threads, c.name, a)
			}
			if threads > runtime.GOMAXPROCS(0) {
				continue
			}
			if a := spinMallocs(100, c.call); a >= 0.5 {
				t.Errorf("threads=%d: %s at GOMAXPROCS=%d allocates %v per call", threads, c.name, runtime.GOMAXPROCS(0), a)
			}
		}
		p.Close()
	}
}

func TestReduceMin2MatchesTwoReduceMins(t *testing.T) {
	vals1 := []float64{5, 3, 8, 3, -1, 7, -1, 2, 9, 4, 0, 6}
	vals2 := []float64{2, 9, 1, 4, 6, 1, 3, 8, 1, 5, 7, 0}
	for _, threads := range []int{1, 2, 3, 8, 20} {
		p := New(threads)
		w1, wa1 := p.ReduceMin(len(vals1), func(i int) float64 { return vals1[i] })
		w2, wa2 := p.ReduceMin(len(vals2), func(i int) float64 { return vals2[i] })
		g1, ga1, g2, ga2 := p.ReduceMin2(len(vals1), func(i int) (float64, float64) {
			return vals1[i], vals2[i]
		})
		p.Close()
		if g1 != w1 || ga1 != wa1 || g2 != w2 || ga2 != wa2 {
			t.Fatalf("threads=%d: ReduceMin2 = (%v,%d,%v,%d), want (%v,%d,%v,%d)",
				threads, g1, ga1, g2, ga2, w1, wa1, w2, wa2)
		}
	}
}

func TestReduceMin2Empty(t *testing.T) {
	v1, a1, v2, a2 := New(4).ReduceMin2(0, func(int) (float64, float64) { return 0, 0 })
	if !math.IsInf(v1, 1) || a1 != -1 || !math.IsInf(v2, 1) || a2 != -1 {
		t.Fatalf("empty ReduceMin2 = (%v,%d,%v,%d), want (+Inf,-1,+Inf,-1)", v1, a1, v2, a2)
	}
}

func TestReduceMin2TieBreaksLowestIndexIndependently(t *testing.T) {
	vals1 := []float64{4, 1, 2, 1, 1}
	vals2 := []float64{3, 3, 0, 0, 9}
	for _, threads := range []int{1, 2, 5} {
		_, a1, _, a2 := New(threads).ReduceMin2(len(vals1), func(i int) (float64, float64) {
			return vals1[i], vals2[i]
		})
		if a1 != 1 || a2 != 2 {
			t.Fatalf("threads=%d: argmins = (%d,%d), want (1,2)", threads, a1, a2)
		}
	}
}

func TestReduceMin2PropertyAgainstSerial(t *testing.T) {
	f := func(raw []float64, threads uint8) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		v1s, v2s := make([]float64, half), make([]float64, half)
		for i := 0; i < half; i++ {
			a, b := raw[i], raw[half+i]
			if math.IsNaN(a) {
				a = 0
			}
			if math.IsNaN(b) {
				b = 0
			}
			v1s[i], v2s[i] = a, b
		}
		op := func(i int) (float64, float64) { return v1s[i], v2s[i] }
		s1, sa1, s2, sa2 := New(1).ReduceMin2(half, op)
		p1, pa1, p2, pa2 := New(int(threads%16)+1).ReduceMin2(half, op)
		return s1 == p1 && sa1 == pa1 && s2 == p2 && sa2 == pa2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
