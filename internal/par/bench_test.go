package par

import (
	"fmt"
	"testing"
	"time"
)

// The dispatch benchmarks quantify what a parallel region itself costs —
// the hand-off to the workers plus the completion barrier — so the
// chunking threshold (minChunkIters) and the spin budget can be judged
// against measured numbers rather than folklore. Sizes bracket the code's real loops: 64 is a tiny sweep,
// 512 a small test mesh, 3600 one thread's share of the 120×120
// step-benchmark mesh, 14400 that mesh's full element count.

var benchSizes = []int{64, 512, 3600, 14400}

// BenchmarkDispatchEmpty is the pure overhead floor: an empty body, so
// ns/op is the hand-off/barrier round trip (or ~0 where the threshold
// collapses the loop to an inline call).
func BenchmarkDispatchEmpty(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		p := New(threads)
		body := func(lo, hi int) {}
		p.For(benchSizes[len(benchSizes)-1], body) // spawn workers once
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("threads-%d/n-%d", threads, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.For(n, body)
				}
			})
		}
		p.Close()
	}
}

// BenchmarkDispatchTouch adds the cheapest real body — one float add per
// iteration — so the ratio against DispatchEmpty shows how much work a
// chunk must carry before the region's overhead stops dominating.
func BenchmarkDispatchTouch(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		p := New(threads)
		sink := make([]float64, benchSizes[len(benchSizes)-1])
		body := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sink[i]++
			}
		}
		p.For(len(sink), body)
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("threads-%d/n-%d", threads, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.For(n, body)
				}
			})
		}
		p.Close()
	}
}

// BenchmarkDispatchAfterGap is the dispatch cost a real step sees: the
// rank does serial work between regions (a halo exchange, a health
// sweep, the scalar tail of a kernel), long enough for an idle worker to
// stop spinning and park. Back-to-back regions (DispatchEmpty/Touch)
// never see that, because the worker is still awake when the next one
// arrives. Each iteration busy-waits for the gap, then times one
// 14400-iteration touch region; region-ns is the time inside For alone.
func BenchmarkDispatchAfterGap(b *testing.B) {
	const n = 14400
	sink := make([]float64, n)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink[i]++
		}
	}
	for _, threads := range []int{1, 2} {
		for _, gap := range []time.Duration{0, 20 * time.Microsecond, 100 * time.Microsecond, time.Millisecond} {
			b.Run(fmt.Sprintf("threads-%d/gap-%v", threads, gap), func(b *testing.B) {
				p := New(threads)
				defer p.Close()
				p.For(n, body) // spawn workers
				var inFor time.Duration
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for t0 := time.Now(); time.Since(t0) < gap; {
					}
					t0 := time.Now()
					p.For(n, body)
					inFor += time.Since(t0)
				}
				b.ReportMetric(float64(inFor.Nanoseconds())/float64(b.N), "region-ns")
			})
		}
	}
}
