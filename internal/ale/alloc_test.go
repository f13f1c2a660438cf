package ale

import (
	"fmt"
	"testing"

	"bookleaf/internal/obs"
	"bookleaf/internal/par"
)

// TestRemapZeroAllocs pins the Remapper's scratch reuse: after warm-up,
// a steady-state remap cycle performs zero heap allocations in every
// mode and order, both in serial dispatch and on a worker pool (the pool
// bodies are bound once in NewRemapper, so dispatching them captures
// nothing).
func TestRemapZeroAllocs(t *testing.T) {
	rows := []struct {
		name string
		opt  Options
	}{
		{"eulerian", Options{Mode: Eulerian}},
		{"smoothed", Options{Mode: Smoothed, SmoothWeight: 0.5}},
		{"firstorder", Options{Mode: Eulerian, FirstOrder: true}},
	}
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					s := testState(t, 16, 16,
						func(cx, cy float64) float64 { return 1 + 0.2*cx },
						func(cx, cy float64) float64 { return 1 + 0.1*cy })
					for n := range s.U {
						s.U[n] = -0.05 * (s.X[n] - 0.5)
						s.V[n] = -0.05 * (s.Y[n] - 0.5)
					}
					if threads > 1 {
						p := par.New(threads)
						defer p.Close()
						s.Pool = p
					}
					r := NewRemapper(row.opt, s)
					tm := obs.NewClock()
					step := func() {
						if _, err := s.Step(nil, nil); err != nil {
							t.Fatal(err)
						}
					}
					step()
					if err := r.Apply(s, tm, nil); err != nil { // warm-up: register clock names
						t.Fatal(err)
					}
					var failed error
					allocs := testing.AllocsPerRun(10, func() {
						step() // move the mesh so the remap has real fluxes (steps are
						// proven allocation-free by the hydro package's own test)
						if err := r.Apply(s, tm, nil); err != nil {
							failed = err
						}
					})
					if failed != nil {
						t.Fatal(failed)
					}
					if allocs != 0 {
						t.Errorf("steady-state step+remap cycle allocates %v per run, want 0", allocs)
					}
				})
			}
		})
	}
}
