package bookleaf

// Driver-level acceptance battery for the mesh-locality overhaul
// (DESIGN.md §15): Hilbert/RCM renumbering must change memory behaviour
// only. Renumbering perturbs summation order (node gathers run in a
// different element order), so reordered runs are compared to the
// canonical run with a tight tolerance. Results are always presented in
// canonical generation order, which is what makes the direct
// index-by-index comparisons below meaningful.

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"
)

// reorderFieldPairs enumerates the physics fields of two results for
// comparison loops.
func reorderFieldPairs(a, b *Result) map[string][2][]float64 {
	return map[string][2][]float64{
		"rho": {a.Rho, b.Rho}, "ein": {a.Ein, b.Ein}, "p": {a.P, b.P},
		"u": {a.U, b.U}, "v": {a.V, b.V},
		"x": {a.X, b.X}, "y": {a.Y, b.Y},
	}
}

// TestReorderMatchesCanonicalAcrossRanks: a renumbered run is the same
// physics as the canonical run to summation-order precision, at every
// supported rank count. The 1e-10 bound is generous against the
// observed drift (~4e-15 on a 200-step Sod) but far below any
// discretisation scale, so a mapping bug — a field presented in the
// wrong order, a halo built against stale ids — fails it immediately.
func TestReorderMatchesCanonicalAcrossRanks(t *testing.T) {
	cases := []Config{
		{Problem: "noh", NX: 20, NY: 20, MaxSteps: 25},
		{Problem: "sod", NX: 64, NY: 4, MaxSteps: 40},
	}
	for _, base := range cases {
		for _, ranks := range []int{1, 2, 4, 7} {
			t.Run(fmt.Sprintf("%s/ranks=%d", base.Problem, ranks), func(t *testing.T) {
				cfg := base
				cfg.Ranks = ranks
				ref, err := Run(cfg)
				if err != nil {
					t.Fatalf("canonical run: %v", err)
				}
				for _, ro := range []string{"hilbert", "rcm"} {
					cfg.Reorder = ro
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("reorder=%s: %v", ro, err)
					}
					if res.Steps != ref.Steps {
						t.Fatalf("reorder=%s: steps %d differ from canonical %d",
							ro, res.Steps, ref.Steps)
					}
					for name, pair := range reorderFieldPairs(res, ref) {
						var d float64
						for i := range pair[0] {
							d = math.Max(d, math.Abs(pair[0][i]-pair[1][i]))
						}
						if d > 1e-10 {
							t.Errorf("reorder=%s: %s drifts %.3e from canonical", ro, name, d)
						}
					}
					if d := math.Abs(res.MassFinal - ref.MassFinal); d > 1e-12*math.Abs(ref.MassFinal) {
						t.Errorf("reorder=%s: mass differs by %v", ro, d)
					}
				}
			})
		}
	}
}

// TestReorderThreadInvariance: every renumbering keeps the bitwise
// thread-count determinism guarantee — renumbering relabels the mesh
// once at setup, so it may not introduce a schedule dependence.
func TestReorderThreadInvariance(t *testing.T) {
	for _, ro := range []string{"none", "hilbert", "rcm"} {
		t.Run("reorder="+ro, func(t *testing.T) {
			base := Config{Problem: "noh", NX: 16, NY: 16, MaxSteps: 20, Reorder: ro, Threads: 1}
			ref, err := Run(base)
			if err != nil {
				t.Fatalf("threads=1: %v", err)
			}
			for _, threads := range []int{2, 4, 7} {
				t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
					cfg := base
					cfg.Threads = threads
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("threads=%d: %v", threads, err)
					}
					if res.Steps != ref.Steps || res.Time != ref.Time {
						t.Fatalf("threads=%d: steps/time (%d, %v) differ from serial (%d, %v)",
							threads, res.Steps, res.Time, ref.Steps, ref.Time)
					}
					for name, pair := range reorderFieldPairs(res, ref) {
						if i := firstDiff(pair[0], pair[1]); i >= 0 {
							t.Errorf("threads=%d: %s[%d] = %x, serial %x",
								threads, name, i, pair[0][i], pair[1][i])
						}
					}
				})
			}
		})
	}
}

// TestReorderCheckpointResume: checkpoints are written in canonical
// generation order regardless of the in-memory numbering, so a dump
// from a renumbered run resumes exactly — at the same rank count
// bitwise, at a different rank count to cross-partition tolerance, and
// even under a *different* renumbering than the one that wrote it.
func TestReorderCheckpointResume(t *testing.T) {
	base := Config{Problem: "sod", NX: 48, NY: 4, MaxSteps: 40, Reorder: "hilbert"}

	ref, err := Run(base)
	if err != nil {
		t.Fatalf("continuous run: %v", err)
	}

	ck := filepath.Join(t.TempDir(), "hilbert.ckpt")
	leg := base
	leg.MaxSteps = 20
	leg.Checkpoint = ck
	if _, err := Run(leg); err != nil {
		t.Fatalf("checkpoint leg: %v", err)
	}

	for _, tc := range []struct {
		name    string
		ranks   int
		reorder string
		bitwise bool
	}{
		{"same-rank-same-order", 0, "hilbert", true},
		{"cross-rank", 3, "hilbert", false},
		{"cross-order-rcm", 0, "rcm", false},
		{"cross-order-none", 2, "none", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Ranks = tc.ranks
			cfg.Reorder = tc.reorder
			cfg.Resume = ck
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps != ref.Steps {
				t.Fatalf("resumed steps %d != continuous %d", res.Steps, ref.Steps)
			}
			for name, pair := range reorderFieldPairs(res, ref) {
				if tc.bitwise {
					if i := firstDiff(pair[0], pair[1]); i >= 0 {
						t.Errorf("%s[%d] = %x, continuous %x", name, i, pair[0][i], pair[1][i])
					}
					continue
				}
				var d float64
				for i := range pair[0] {
					d = math.Max(d, math.Abs(pair[0][i]-pair[1][i]))
				}
				if d > 1e-10 {
					t.Errorf("%s differs from continuous run by %v", name, d)
				}
			}
		})
	}
}

// TestReorderSuperviseRepartition: elastic repartitioning re-splits the
// renumbered global mesh, so locality survives a mid-run rank-count
// change and the run still lands on the unperturbed answer.
func TestReorderSuperviseRepartition(t *testing.T) {
	base := Config{
		Problem: "noh", NX: 16, NY: 16, MaxSteps: 24,
		Ranks: 4, ALE: "smoothed", ALEFreq: 2, Reorder: "hilbert",
	}
	ref, err := runBoundedResult(t, base)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	for _, newRanks := range []int{7, 2} {
		t.Run(fmt.Sprintf("repart-to-%d", newRanks), func(t *testing.T) {
			cfg := base
			cfg.Supervise = &SuperviseConfig{
				Enabled:      true,
				RepartAtStep: 12,
				RepartRanks:  newRanks,
			}
			res, err := runBoundedResult(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Repartitions != 1 || res.FinalRanks != newRanks {
				t.Fatalf("repartitions=%d final ranks=%d, want 1/%d",
					res.Repartitions, res.FinalRanks, newRanks)
			}
			if res.Steps != ref.Steps {
				t.Fatalf("steps %d differ from unperturbed %d", res.Steps, ref.Steps)
			}
			for name, pair := range reorderFieldPairs(res, ref) {
				var d float64
				for i := range pair[0] {
					d = math.Max(d, math.Abs(pair[0][i]-pair[1][i]))
				}
				if d > 1e-6 {
					t.Errorf("%s drifts %.3e from the unperturbed run", name, d)
				}
			}
			if d := math.Abs(res.MassFinal - ref.MassFinal); d > 1e-12*ref.MassFinal {
				t.Errorf("mass differs by %v after repartition", d)
			}
		})
	}
}
