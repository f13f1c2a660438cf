package par

import (
	"fmt"
	"testing"
)

// The dispatch benchmarks quantify what a parallel region itself costs —
// the wake sends plus the completion barrier — so the chunking threshold
// (minChunkIters) can be judged against measured numbers rather than
// folklore. Sizes bracket the code's real loops: 64 is a tiny sweep,
// 512 a small test mesh, 3600 one thread's share of the 120×120
// step-benchmark mesh, 14400 that mesh's full element count.

var benchSizes = []int{64, 512, 3600, 14400}

// BenchmarkDispatchEmpty is the pure overhead floor: an empty body, so
// ns/op is the wake/barrier round trip (or ~0 where the threshold
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
