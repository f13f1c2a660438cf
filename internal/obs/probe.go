package obs

import "math"

// ProbeRecord is one sample of the runtime invariant probe.
type ProbeRecord struct {
	Step int     `json:"step"`
	Time float64 `json:"time"`
	// Mass and Energy are the global (rank-reduced) totals at the
	// sample; Work and Floor the accumulated external work and
	// floor-energy injections the conservation identity discounts.
	Mass, Energy, Work, Floor float64
	// Drift is the relative conservation defect accumulated since the
	// baseline sample; DriftPerStep normalises it by elapsed steps.
	Drift, DriftPerStep float64
	// Finite is false when the sample's finite-value sweep found a
	// NaN/Inf.
	Finite bool
	// Violation marks samples that tripped a probe check.
	Violation bool
}

// InvariantProbe samples conservation invariants every N steps. The
// scheme is compatible (exactly energy-conserving up to round-off), so
// any drift beyond round-off accumulation is a bug detector: a wrong
// kernel, a corrupted halo message, a bad remap. The first sample
// baselines the reference totals, so probes compose with restarts.
//
// Thresholds are per-step: a violation is flagged when the relative
// drift since baseline, divided by the number of steps elapsed, exceeds
// DefaultMaxDriftPerStep — the rate form keeps the check meaningful for
// both 10-step smoke runs and long campaigns. Mass in a Lagrangian
// or swept-region remap step is conserved identically (element masses
// are constant), so mass drift uses the same per-step bound.
//
// Like the other obs instruments, a probe is single-goroutine and a
// nil *InvariantProbe no-ops.
type InvariantProbe struct {
	// Every is the sampling cadence in steps (0 disables Sample).
	Every int

	// Records accumulates samples; Violations counts flagged samples
	// plus non-finite notes.
	Records    []ProbeRecord
	Violations int

	reg       *Registry
	baselined bool
	step0     int
	mass0, e0 float64
	w0, f0    float64
}

// DefaultMaxDriftPerStep is the per-step relative drift budget:
// generous against round-off accumulation (the compatible scheme stays
// below 1e-12/step on the standard problems) but far below any physical
// bug.
const DefaultMaxDriftPerStep = 1e-9

// NewInvariantProbe creates a probe sampling every `every` steps and
// publishing its gauges/counters into reg (which may be nil).
func NewInvariantProbe(every int, reg *Registry) *InvariantProbe {
	return &InvariantProbe{Every: every, reg: reg}
}

// Sample records one invariant sample from globally-reduced totals.
// finite is the outcome of the caller's finite-value sweep (true =
// clean). It returns the record, whose Violation field reports whether
// a check tripped. No-op (returning a zero record) on a nil probe.
func (p *InvariantProbe) Sample(step int, t, mass, energy, work, floor float64, finite bool) ProbeRecord {
	if p == nil {
		return ProbeRecord{}
	}
	rec := ProbeRecord{
		Step: step, Time: t,
		Mass: mass, Energy: energy, Work: work, Floor: floor,
		Finite: finite,
	}
	if !p.baselined {
		p.baselined = true
		p.step0 = step
		p.mass0, p.e0 = mass, energy
		p.w0, p.f0 = work, floor
	}
	den := math.Max(math.Abs(p.e0), 1e-300)
	eDrift := math.Abs(energy-p.e0-(work-p.w0)-(floor-p.f0)) / den
	mDrift := math.Abs(mass-p.mass0) / math.Max(math.Abs(p.mass0), 1e-300)
	rec.Drift = math.Max(eDrift, mDrift)
	if n := step - p.step0; n > 0 {
		rec.DriftPerStep = rec.Drift / float64(n)
	}
	if !finite || rec.DriftPerStep > DefaultMaxDriftPerStep {
		rec.Violation = true
		p.Violations++
		p.reg.Counter("probe_violations_total").Inc()
	}
	p.Records = append(p.Records, rec)
	p.reg.Counter("probe_samples_total").Inc()
	p.reg.Gauge("probe_mass").Set(mass)
	p.reg.Gauge("probe_energy").Set(energy)
	p.reg.Gauge("probe_drift").Set(rec.Drift)
	p.reg.Gauge("probe_drift_per_step").Set(rec.DriftPerStep)
	return rec
}

// NoteNonFinite records a finite-value-sweep failure outside the
// sampling cadence — the per-step health sentinel routing its finding
// through the probe, so corrupted states are flagged within one step
// even when the driver immediately rolls them back. No-op on nil.
func (p *InvariantProbe) NoteNonFinite(step int, t float64) {
	if p == nil {
		return
	}
	p.Records = append(p.Records, ProbeRecord{
		Step: step, Time: t, Finite: false, Violation: true,
	})
	p.Violations++
	p.reg.Counter("probe_violations_total").Inc()
	p.reg.Counter("probe_nonfinite_total").Inc()
}
