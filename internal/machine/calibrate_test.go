package machine

import (
	"math"
	"sync"
	"testing"
)

// TestCalibratorConvergence: a steady measured/modelled ratio pulls the
// scale onto itself — the first observation seeds it, repeats converge
// geometrically — and Apply rescales only the seconds.
func TestCalibratorConvergence(t *testing.T) {
	c := NewCalibrator()
	if c.Scale() != 1 {
		t.Fatalf("fresh scale %g, want 1", c.Scale())
	}
	const truth = 3.5
	for i := 0; i < 40; i++ {
		c.Observe(10, 10*truth)
	}
	if s := c.Scale(); math.Abs(s-truth) > 1e-9 {
		t.Fatalf("scale %g after 40 steady observations, want %g", s, truth)
	}
	if c.n != 40 {
		t.Fatalf("observations %d, want 40", c.n)
	}

	est := Estimate{NEl: 100, Steps: 50, StepSeconds: 0.01, Seconds: 0.5}
	got := c.Apply(est)
	if got.NEl != 100 || got.Steps != 50 {
		t.Fatalf("Apply moved deck facts: %+v", got)
	}
	if math.Abs(got.Seconds-0.5*truth) > 1e-9 || math.Abs(got.StepSeconds-0.01*truth) > 1e-9 {
		t.Fatalf("Apply scaled to %+v, want x%g", got, truth)
	}
}

// TestCalibratorWeight: the first observation seeds the scale and each
// later one moves it a quarter of the way (calibAlpha) towards its
// ratio.
func TestCalibratorWeight(t *testing.T) {
	c := NewCalibrator()
	c.Observe(1, 2)
	if s := c.Scale(); s != 2 {
		t.Fatalf("scale %g after the first observation, want it seeded at 2", s)
	}
	c.Observe(1, 6)
	if s := c.Scale(); s != 3 {
		t.Fatalf("scale %g after observing 6 from 2, want 2 + 0.25*(6-2) = 3", s)
	}
}

// TestCalibratorTracksDrift: after converging on one ratio the average
// must follow a sustained shift to a new one (the EWMA forgets).
func TestCalibratorTracksDrift(t *testing.T) {
	c := NewCalibrator()
	for i := 0; i < 30; i++ {
		c.Observe(1, 4)
	}
	for i := 0; i < 60; i++ {
		c.Observe(1, 0.5)
	}
	if s := c.Scale(); math.Abs(s-0.5) > 1e-3 {
		t.Fatalf("scale %g after drift, want ~0.5", s)
	}
}

// TestCalibratorHostileObservations: degenerate wall clocks and
// modelled costs must neither move the scale nor count, and a single
// wild outlier is bounded by the per-observation clamp.
func TestCalibratorHostileObservations(t *testing.T) {
	c := NewCalibrator()
	for _, pair := range [][2]float64{
		{0, 1}, {1, 0}, {-1, 1}, {1, -1},
		{math.NaN(), 1}, {1, math.NaN()},
		{math.Inf(1), 1}, {1, math.Inf(1)},
	} {
		c.Observe(pair[0], pair[1])
	}
	if c.n != 0 || c.Scale() != 1 {
		t.Fatalf("hostile observations counted: n=%d scale=%g", c.n, c.Scale())
	}
	c.Observe(1, 1e12)
	if s := c.Scale(); s != calibClamp {
		t.Fatalf("outlier scale %g, want clamp %g", s, calibClamp)
	}
	c2 := NewCalibrator()
	c2.Observe(1e12, 1)
	if s := c2.Scale(); s != 1/calibClamp {
		t.Fatalf("inverse outlier scale %g, want %g", s, 1/calibClamp)
	}
}

// TestCalibratorStateRestore: State/Restore round-trips the learned
// scale exactly (the restart path of a durable daemon), hostile
// restored values are dropped, and an out-of-envelope scale clamps to
// the same [1/64, 64] range every legitimately-learned scale lives in.
func TestCalibratorStateRestore(t *testing.T) {
	c := NewCalibrator()
	c.Observe(10, 23)
	c.Observe(10, 31)
	scale, n := c.State()
	if n != 2 || scale != c.Scale() {
		t.Fatalf("State() = (%g, %d), want (%g, 2)", scale, n, c.Scale())
	}

	fresh := NewCalibrator()
	fresh.Restore(scale, n)
	if s, m := fresh.State(); s != scale || m != n {
		t.Fatalf("restored state (%g, %d), want exact (%g, %d)", s, m, scale, n)
	}
	// A restored calibrator keeps learning from where it left off.
	fresh.Observe(10, 23)
	if fresh.n != n+1 {
		t.Fatalf("observations %d after restore+observe, want %d", fresh.n, n+1)
	}

	for _, bad := range []struct {
		scale float64
		n     int
	}{
		{0, 5}, {-1, 5}, {math.NaN(), 5}, {math.Inf(1), 5},
		{2, 0}, {2, -3},
	} {
		d := NewCalibrator()
		d.Restore(bad.scale, bad.n)
		if s, m := d.State(); s != 1 || m != 0 {
			t.Fatalf("hostile Restore(%g, %d) accepted: state (%g, %d)", bad.scale, bad.n, s, m)
		}
	}

	hi := NewCalibrator()
	hi.Restore(1e12, 7)
	if s, _ := hi.State(); s != calibClamp {
		t.Fatalf("oversized restored scale %g, want clamp %g", s, calibClamp)
	}
	lo := NewCalibrator()
	lo.Restore(1e-12, 7)
	if s, _ := lo.State(); s != 1/calibClamp {
		t.Fatalf("undersized restored scale %g, want clamp %g", s, 1/calibClamp)
	}
}

// TestCalibratorConcurrent: Observe and Scale race freely in the
// daemon (legs complete while submissions price); run under -race this
// is the regression test for the lock.
func TestCalibratorConcurrent(t *testing.T) {
	c := NewCalibrator()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Observe(1, 2)
				_ = c.Scale()
			}
		}()
	}
	wg.Wait()
	if s := c.Scale(); math.Abs(s-2) > 1e-9 {
		t.Fatalf("scale %g after concurrent steady observations, want 2", s)
	}
	if c.n != 2000 {
		t.Fatalf("observations %d, want 2000", c.n)
	}
}
