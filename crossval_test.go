package bookleaf_test

import (
	"math"
	"testing"

	"bookleaf"
	"bookleaf/internal/eos"
	"bookleaf/internal/ref1d"
)

// The 2-D code on a quasi-1-D strip must agree with the independent
// 1-D reference solver — the same numerical ingredients implemented
// twice, so agreement is a strong consistency check on both.
func TestTwoDMatchesOneDReference(t *testing.T) {
	const n = 200
	res := run(t, bookleaf.Config{Problem: "sod", NX: n, NY: 2})

	ref, err := ref1d.SodTube(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(0.25); err != nil {
		t.Fatal(err)
	}

	xs2, rho2 := res.XProfile(res.Rho)
	cx1 := ref.Centroids()

	// Compare the 2-D profile against the 1-D solution by nearest
	// cell (the Lagrangian meshes drift differently, so interpolate).
	var diff float64
	count := 0
	for i := 0; i < len(xs2); i += 2 { // one sample per column
		x := xs2[i]
		// nearest 1-D cell
		best, dist := 0, math.Inf(1)
		for j, xx := range cx1 {
			if d := math.Abs(xx - x); d < dist {
				dist, best = d, j
			}
		}
		diff += math.Abs(rho2[i] - ref.Rho[best])
		count++
	}
	diff /= float64(count)
	if diff > 0.01 {
		t.Fatalf("2-D vs 1-D mean density difference %v, want < 0.01", diff)
	}
}

// Saltzmann's piston (undistorted-mesh equivalent) against the 1-D
// piston: the 2-D skewed-mesh run must land on the same post-shock
// state the 1-D solver computes.
func TestSaltzmannMatchesOneDPiston(t *testing.T) {
	res := run(t, bookleaf.Config{Problem: "saltzmann", NX: 100, NY: 10, TEnd: 0.5})
	xs2, rho2 := res.XProfile(res.Rho)

	// 1-D piston at the same resolution.
	opt := ref1d.DefaultOptions()
	opt.Left = ref1d.Piston
	opt.PistonU = 1
	ref := build1DPiston(t, opt, 100)
	if err := ref.Run(0.5); err != nil {
		t.Fatal(err)
	}
	cx1 := ref.Centroids()

	var diff float64
	count := 0
	for i := 0; i < len(xs2); i += 10 {
		x := xs2[i]
		best, dist := 0, math.Inf(1)
		for j, xx := range cx1 {
			if d := math.Abs(xx - x); d < dist {
				dist, best = d, j
			}
		}
		diff += math.Abs(rho2[i] - ref.Rho[best])
		count++
	}
	diff /= float64(count)
	// The skewed 2-D mesh smears the front more than 1-D; allow a
	// moderate band that still pins the post-shock plateau.
	if diff > 0.25 {
		t.Fatalf("2-D Saltzmann vs 1-D piston mean difference %v", diff)
	}
}

// The obs registry counts messages at the same send site as the
// communicator's own Stats() accounting, so the two independent
// totals must agree exactly — and the per-phase halo counters must
// partition the total with nothing left over.
func TestObsCountersCrossCheckCommStats(t *testing.T) {
	res := run(t, bookleaf.Config{Problem: "sod", NX: 64, NY: 4, Ranks: 4, MaxSteps: 30})
	if res.Obs == nil {
		t.Fatal("no obs snapshot on result")
	}
	if got := res.Obs.Counters["comm_msgs_total"]; got != res.CommMsgs {
		t.Fatalf("obs comm_msgs_total = %d, typhon Stats = %d", got, res.CommMsgs)
	}
	if got := res.Obs.Counters["comm_words_total"]; got != res.CommWords {
		t.Fatalf("obs comm_words_total = %d, typhon Stats = %d", got, res.CommWords)
	}
	phases := res.Obs.Counters["halo_msgs_forces"] +
		res.Obs.Counters["halo_msgs_velocities"] +
		res.Obs.Counters["halo_msgs_remap"]
	if phases != res.CommMsgs {
		t.Fatalf("phase msg counters sum to %d, total is %d", phases, res.CommMsgs)
	}
	words := res.Obs.Counters["halo_words_forces"] +
		res.Obs.Counters["halo_words_velocities"] +
		res.Obs.Counters["halo_words_remap"]
	if words != res.CommWords {
		t.Fatalf("phase word counters sum to %d, total is %d", words, res.CommWords)
	}
	// The message-size histogram sees every message too.
	h, ok := res.Obs.Histograms["halo_msg_words"]
	if !ok {
		t.Fatal("halo_msg_words histogram missing")
	}
	if h.Count != res.CommMsgs || int64(h.Sum) != res.CommWords {
		t.Fatalf("histogram count/sum = %d/%v, Stats = %d/%d", h.Count, h.Sum, res.CommMsgs, res.CommWords)
	}
	if _, ok := res.Obs.Counters["halo_wait_ns"]; !ok {
		t.Fatal("halo_wait_ns counter missing")
	}
}

func build1DPiston(t *testing.T, opt ref1d.Options, n int) *ref1d.Solver {
	t.Helper()
	g, err := eos.NewIdealGas(5.0 / 3.0)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n+1)
	rho := make([]float64, n)
	ein := make([]float64, n)
	mats := make([]eos.Material, n)
	for i := 0; i <= n; i++ {
		x[i] = float64(i) / float64(n)
	}
	for i := 0; i < n; i++ {
		rho[i] = 1
		ein[i] = 1e-9
		mats[i] = g
	}
	s, err := ref1d.New(opt, x, rho, ein, mats)
	if err != nil {
		t.Fatal(err)
	}
	s.U[0] = 1
	return s
}
