package hydro

import (
	"fmt"

	"bookleaf/internal/eos"
)

// HourglassControl selects the zero-energy-mode suppression scheme. The
// paper provides "a filter following Hancock and sub-zonal pressures
// following Caramana et al."; both are implemented, plus none for
// ablation runs.
type HourglassControl int

const (
	// HGNone disables hourglass control.
	HGNone HourglassControl = iota
	// HGFilter is the Hancock-style viscous hourglass filter.
	HGFilter
	// HGSubzonal is the Caramana sub-zonal pressure method.
	HGSubzonal
)

func (h HourglassControl) String() string {
	switch h {
	case HGNone:
		return "none"
	case HGFilter:
		return "filter"
	case HGSubzonal:
		return "subzonal"
	default:
		return fmt.Sprintf("HourglassControl(%d)", int(h))
	}
}

// Options are the numerical controls of the Lagrangian step; the zero
// value is not usable — call DefaultOptions and override.
type Options struct {
	// CFL is the Courant safety factor on the sound-speed timestep.
	CFL float64
	// DivSafety limits the relative volume change per step.
	DivSafety float64
	// DtInitial is the first timestep.
	DtInitial float64
	// DtMax caps the timestep; DtMin aborts the run when the stable
	// timestep collapses below it.
	DtMax, DtMin float64
	// DtGrowth caps dt growth per step (the paper's 1.02-style factor).
	DtGrowth float64

	// CQ1, CQ2 are the linear and quadratic artificial-viscosity
	// coefficients (Caramana et al. forms).
	CQ1, CQ2 float64

	// Hourglass selects the anti-hourglass scheme; HGKappa scales the
	// filter, HGSubMerit scales the sub-zonal pressure response.
	Hourglass  HourglassControl
	HGKappa    float64
	HGSubMerit float64

	// Materials maps region index to equation of state.
	Materials []eos.Material

	// ScatterAcc switches the acceleration kernel from the default
	// race-free node-gather formulation (bitwise-identical to the
	// scatter, parallel at any thread count) back to the reference
	// implementation's corner-force→node scatter, whose data dependency
	// serialises it — the OpenMP limitation discussed in the paper,
	// kept as a paper-fidelity ablation.
	ScatterAcc bool

	// Fuse runs the step on the fused element passes: the viscosity +
	// corner-force pair and the geometry→density→energy→EOS update
	// chain each become a single pool sweep that streams X/Y/U/V once
	// per element instead of re-gathering them per kernel (see
	// DESIGN.md §13). Bitwise-identical to the unfused kernels at any
	// thread count; on by default (DefaultOptions) — switching it off
	// selects the paper's one-kernel-per-phase structure as the
	// ablation.
	Fuse bool
}

// DefaultOptions returns the standard BookLeaf-style controls for the
// given region materials.
func DefaultOptions(materials ...eos.Material) Options {
	return Options{
		CFL:        0.5,
		DivSafety:  0.25,
		DtInitial:  1e-5,
		DtMax:      1e-1,
		DtMin:      1e-12,
		DtGrowth:   1.02,
		CQ1:        0.5,
		CQ2:        0.75,
		Hourglass:  HGSubzonal,
		HGKappa:    0.1,
		HGSubMerit: 1.0,
		Materials:  materials,
		Fuse:       true,
	}
}

// Validate reports configuration errors.
func (o *Options) Validate() error {
	switch {
	case o.CFL <= 0 || o.CFL > 1:
		return fmt.Errorf("hydro: CFL = %v out of (0,1]", o.CFL)
	case o.DtInitial <= 0:
		return fmt.Errorf("hydro: DtInitial = %v, must be positive", o.DtInitial)
	case o.DtMax < o.DtInitial:
		return fmt.Errorf("hydro: DtMax = %v below DtInitial = %v", o.DtMax, o.DtInitial)
	case o.DtMin <= 0 || o.DtMin > o.DtMax:
		return fmt.Errorf("hydro: DtMin = %v out of (0, DtMax]", o.DtMin)
	case o.DtGrowth < 1:
		return fmt.Errorf("hydro: DtGrowth = %v, must be >= 1", o.DtGrowth)
	case o.CQ1 < 0 || o.CQ2 < 0:
		return fmt.Errorf("hydro: viscosity coefficients must be non-negative (cq1=%v cq2=%v)", o.CQ1, o.CQ2)
	case len(o.Materials) == 0:
		return fmt.Errorf("hydro: no materials configured")
	}
	for i, m := range o.Materials {
		if m == nil {
			return fmt.Errorf("hydro: material for region %d is nil", i)
		}
	}
	return nil
}
