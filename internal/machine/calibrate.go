package machine

import (
	"math"
	"sync"
)

// Calibrator refines PredictRun's absolute seconds online from
// completed runs. The model's ordering between decks is structural
// (monotone in elements and steps) but its absolute scale assumes a
// generic serving host; a live daemon sees real wall clocks, so it
// keeps an exponentially-weighted moving average of the measured/
// modelled ratio — equivalently, of measured seconds per element-step
// with the model as the unit — and scales subsequent estimates by it.
//
// Observations are untrusted in the same sense deck shapes are: a
// wall clock distorted by a stalled worker or a preempted leg must not
// poison admission control, so non-finite and non-positive inputs are
// dropped and each observation's ratio is clamped to [1/64, 64] before
// it enters the average.
type Calibrator struct {
	mu    sync.Mutex
	scale float64
	n     int
}

const (
	// calibAlpha is the EWMA weight: a new observation moves the scale
	// a quarter of the way, converging within ~a dozen jobs without
	// letting one outlier dominate.
	calibAlpha = 0.25
	// calibClamp bounds each observation's ratio: an estimate 64x off
	// in either direction carries no more weight than one 64x off
	// exactly.
	calibClamp = 64.0
)

// NewCalibrator returns a calibrator at scale 1 with no observations.
func NewCalibrator() *Calibrator {
	return &Calibrator{scale: 1}
}

// Observe folds one completed run into the average: modelled is the
// uncalibrated PredictRun seconds for the deck, measured the wall
// seconds its legs actually took. Degenerate pairs are ignored.
func (c *Calibrator) Observe(modelled, measured float64) {
	if !(modelled > 0) || !(measured > 0) ||
		math.IsInf(modelled, 1) || math.IsInf(measured, 1) {
		return
	}
	r := measured / modelled
	if r > calibClamp {
		r = calibClamp
	}
	if r < 1/calibClamp {
		r = 1 / calibClamp
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		// Seed at the first measurement rather than decaying from 1:
		// the prior scale carries no information.
		c.scale = r
	} else {
		c.scale += calibAlpha * (r - c.scale)
	}
	c.n++
}

// Scale returns the current measured/modelled ratio (1 until the first
// observation).
func (c *Calibrator) Scale() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scale
}

// State snapshots the calibrator for persistence: the current scale
// and the observation count it was learned from, read atomically so a
// concurrent Observe cannot tear the pair.
func (c *Calibrator) State() (scale float64, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scale, c.n
}

// Restore reinstates a persisted State, the restart path of a durable
// serving daemon. Restored values are as untrusted as observations: a
// non-finite or non-positive scale, or a non-positive count, is
// dropped (the calibrator keeps its current state), and an in-range
// count with an out-of-range scale clamps to the same [1/64, 64]
// envelope every legitimately-learned scale lives in — a corrupt
// journal must not poison admission control.
func (c *Calibrator) Restore(scale float64, n int) {
	if !(scale > 0) || math.IsInf(scale, 1) || n <= 0 {
		return
	}
	if scale > calibClamp {
		scale = calibClamp
	}
	if scale < 1/calibClamp {
		scale = 1 / calibClamp
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scale = scale
	c.n = n
}

// Apply rescales an estimate by the current ratio. NEl and Steps are
// deck facts and stay put; only the seconds move.
func (c *Calibrator) Apply(est Estimate) Estimate {
	s := c.Scale()
	est.StepSeconds *= s
	est.Seconds *= s
	return est
}
