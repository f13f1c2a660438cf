package machine

import (
	"math"
	"testing"
)

// The admission controller only consumes the ordering of estimates, so
// the property that matters is monotonicity: a deck with more elements
// or more steps must never predict cheaper.

func TestPredictRunMonotoneInElements(t *testing.T) {
	prev := 0.0
	for _, nx := range []int{10, 50, 100, 500, 1000, 5000} {
		est := PredictRun(RunShape{Problem: "sod", NX: nx, NY: 4, MaxSteps: 100, Threads: 1})
		if est.NEl != nx*4 {
			t.Fatalf("nx=%d: NEl=%d, want %d", nx, est.NEl, nx*4)
		}
		if est.Seconds <= prev {
			t.Fatalf("nx=%d: Seconds=%g not monotone (prev %g)", nx, est.Seconds, prev)
		}
		prev = est.Seconds
	}
}

func TestPredictRunMonotoneInSteps(t *testing.T) {
	prev := 0.0
	for _, steps := range []int{1, 10, 100, 1000} {
		est := PredictRun(RunShape{Problem: "sod", NX: 200, NY: 4, MaxSteps: steps, Threads: 1})
		if est.Steps > steps {
			t.Fatalf("maxsteps=%d not respected: predicted %d", steps, est.Steps)
		}
		if est.Seconds <= prev {
			t.Fatalf("maxsteps=%d: Seconds=%g not monotone (prev %g)", steps, est.Seconds, prev)
		}
		prev = est.Seconds
	}
	// Uncapped dominates every cap.
	uncapped := PredictRun(RunShape{Problem: "sod", NX: 200, NY: 4, Threads: 1})
	if uncapped.Seconds < prev {
		t.Fatalf("uncapped %g cheaper than capped %g", uncapped.Seconds, prev)
	}
}

func TestPredictRunMonotoneInTEnd(t *testing.T) {
	prev := 0.0
	for _, tend := range []float64{0.05, 0.25, 1.0, 4.0} {
		est := PredictRun(RunShape{Problem: "sod", NX: 200, NY: 4, TEnd: tend, Threads: 1})
		if est.Seconds <= prev {
			t.Fatalf("tend=%g: Seconds=%g not monotone (prev %g)", tend, est.Seconds, prev)
		}
		prev = est.Seconds
	}
}

func TestPredictRunDefaultsAndDegeneracies(t *testing.T) {
	// Hostile dimensions must not underflow: everything clamps to >= 1.
	est := PredictRun(RunShape{Problem: "sod", NX: -5, NY: 0})
	if est.NEl != 1 || est.Steps < 1 || est.StepSeconds <= 0 {
		t.Fatalf("degenerate shape not clamped: %+v", est)
	}
	// Unset tend falls back to the per-problem default, so sod and noh
	// decks of the same size still order by their physics.
	sod := PredictRun(RunShape{Problem: "sod", NX: 100, NY: 100})
	noh := PredictRun(RunShape{Problem: "noh", NX: 100, NY: 100})
	if sod.Steps <= 0 || noh.Steps <= 0 {
		t.Fatalf("default tend produced no steps: sod=%+v noh=%+v", sod, noh)
	}
	if noh.Steps <= sod.Steps {
		t.Fatalf("noh (tend 0.6, faster rate) should predict more steps than sod: %d vs %d",
			noh.Steps, sod.Steps)
	}
	// A giant deck costs arithmetic, not memory: this must return
	// instantly with a huge but finite estimate.
	big := PredictRun(RunShape{Problem: "sod", NX: 1_000_000, NY: 1_000})
	if big.Seconds <= sod.Seconds || big.Seconds != big.Seconds /* NaN */ {
		t.Fatalf("giant deck estimate broken: %+v", big)
	}
}

// TestPredictRunHostileShapesSaturate: the predictor runs on untrusted
// numbers, so every sizing conversion must saturate instead of
// overflowing. The two regressions pinned here used to admit hostile
// decks with tiny (or negative) estimates: a tend past float->int range
// overflowed the step conversion and clamped to steps=1, and nx*ny past
// int64 wrapped negative.
func TestPredictRunHostileShapesSaturate(t *testing.T) {
	base := PredictRun(RunShape{Problem: "sod", NX: 200, NY: 4, TEnd: 0.25})

	for _, tend := range []float64{1e17, 1e300, math.Inf(1)} {
		est := PredictRun(RunShape{Problem: "sod", NX: 200, NY: 4, TEnd: tend})
		if math.IsNaN(est.Seconds) || math.IsInf(est.Seconds, 0) || est.Seconds <= 0 {
			t.Fatalf("tend=%g: estimate not finite-positive: %+v", tend, est)
		}
		if est.Seconds <= base.Seconds || est.Steps < base.Steps {
			t.Fatalf("tend=%g priced cheaper than tend=0.25: %+v vs %+v", tend, est, base)
		}
	}
	// NaN tend falls back to the problem default instead of poisoning
	// the arithmetic.
	nan := PredictRun(RunShape{Problem: "sod", NX: 200, NY: 4, TEnd: math.NaN()})
	def := PredictRun(RunShape{Problem: "sod", NX: 200, NY: 4})
	if nan.Seconds != def.Seconds {
		t.Fatalf("NaN tend: %+v, want the default-tend estimate %+v", nan, def)
	}

	// nx*ny = 1.6e19 overflows int64; the estimate must stay huge and
	// positive, never wrap negative.
	big := PredictRun(RunShape{Problem: "sod", NX: 4_000_000_000, NY: 4_000_000_000})
	if big.NEl <= 0 || big.Seconds <= 0 || math.IsNaN(big.Seconds) || math.IsInf(big.Seconds, 0) {
		t.Fatalf("overflowing mesh not saturated: %+v", big)
	}
	if big.Seconds <= base.Seconds {
		t.Fatalf("giant mesh priced cheaper than 200x4: %g <= %g", big.Seconds, base.Seconds)
	}
}

// TestPredictRunChargesRanks: a multi-rank deck consumes ranks times
// the CPU of a serial worker, so it must be charged ranks times the
// serial estimate.
func TestPredictRunChargesRanks(t *testing.T) {
	serial := PredictRun(RunShape{Problem: "sod", NX: 200, NY: 4, MaxSteps: 50, Threads: 2})
	eight := PredictRun(RunShape{Problem: "sod", NX: 200, NY: 4, MaxSteps: 50, Threads: 2, Ranks: 8})
	if eight.Seconds != 8*serial.Seconds {
		t.Fatalf("ranks=8 charged %g, want 8x serial %g", eight.Seconds, 8*serial.Seconds)
	}
}

// TestServingHostThreadsClamped: a deck-declared million threads must
// not buy unbounded modelled bandwidth (which would make the hostile
// deck's estimate cheaper, inverting the admission gate).
func TestServingHostThreadsClamped(t *testing.T) {
	if got, max := servingHost(1<<20).NodeBW, servingHost(1024).NodeBW; got > max {
		t.Fatalf("servingHost(2^20).NodeBW = %g exceeds the 1024-thread clamp %g", got, max)
	}
}

func TestServingHostThreadsSpeedup(t *testing.T) {
	one := PredictRun(RunShape{Problem: "sod", NX: 200, NY: 4, MaxSteps: 50, Threads: 1})
	four := PredictRun(RunShape{Problem: "sod", NX: 200, NY: 4, MaxSteps: 50, Threads: 4})
	if four.StepSeconds >= one.StepSeconds {
		t.Fatalf("more worker threads should predict faster steps: 1T=%g 4T=%g",
			one.StepSeconds, four.StepSeconds)
	}
}
