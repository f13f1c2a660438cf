// Kernel-fusion roofline: the model-side view of the fused element
// passes implemented in internal/hydro (see DESIGN.md §13). Each
// Fusion records which paper kernels a merged pass replaces and how
// much per-element traffic and arithmetic the merge eliminates; the
// predicted gain is then a roofline ratio that can sit next to the
// measured fused-vs-unfused benchmark delta in EXPERIMENTS.md.
//
// The savings are accounted explicitly rather than folded into new
// descriptors so the unfused side stays, byte for byte, the sum of the
// Kernels table the rest of the model is calibrated on: a fusion can
// only remove traffic the table already charged somewhere.

package machine

// Fusion describes one of the fused element passes: the merged pass's
// name (which is also its timer key in the hydro package), the paper
// kernels it replaces, and the per-element work the merge eliminates.
type Fusion struct {
	Name     string
	Replaces []string
	// SavedBytes is the per-element off-chip traffic the merge removes:
	// intermediate arrays that no longer make a write + re-read round
	// trip between kernels, and connectivity gathers the second kernel
	// no longer repeats. SavedOps is the weighted arithmetic shared
	// between the merged bodies (gather index math, centroids, edge
	// midpoints) that is now computed once.
	SavedBytes, SavedOps float64
}

// Fusions is the inventory of merged passes in internal/hydro, in step
// order. Byte savings are counted from the implementation's arrays at
// 8 bytes per float64 and discounted the same way the Kernels table
// discounts cache-resident traffic.
var Fusions = []Fusion{
	// getq computes q, getforce immediately consumes it. The table
	// charges the unfused pair a hand-over of five values — Q and one
	// per edge — at one 8-byte write + re-read each (40 B effective
	// after the half-charge cache discount), and the force half its own
	// coordinate/velocity gather (48 B effective of its 80); fused, Q
	// stays in a register and the gather is shared. The per-edge values
	// are the paper's edge damper coefficients; internal/hydro forms
	// none and streams the stored limiter in their place, from the fused
	// and the unfused sweep alike.
	{Name: "qforce", Replaces: []string{"getq", "getforce"},
		SavedBytes: 88, SavedOps: 40},
	// getgeom→getrho→getein→getpc is a straight per-element dataflow
	// chain: volume, density and energy each made a write + re-read
	// round trip between kernels (3 × 16 B), and getein re-gathered
	// the coordinates getgeom had just touched.
	{Name: "lagupdate", Replaces: []string{"getgeom", "getrho", "getein", "getpc"},
		SavedBytes: 48, SavedOps: 10},
	// getdt runs two full-mesh reductions (CFL length, divergence)
	// over the same coordinate, velocity and sound-speed data; the
	// fused pair-reduction sweeps once (x, y, u, v gathers + csq:
	// 72 B effective) and shares the gather index math.
	{Name: "dtreduce", Replaces: []string{"getdt"},
		SavedBytes: 72, SavedOps: 15},
}

// Unfused returns the summed per-element weighted ops and bytes of the
// kernels this fusion replaces — exactly the Kernels-table numbers.
func (f Fusion) Unfused() (ops, bytes float64) {
	for _, name := range f.Replaces {
		k, ok := kernelByName(name)
		if !ok {
			panic("machine: fusion references unknown kernel " + name)
		}
		ops += k.Ops
		bytes += k.Bytes
	}
	return ops, bytes
}

// Fused returns the merged pass's per-element weighted ops and bytes:
// the unfused sums minus the eliminated work.
func (f Fusion) Fused() (ops, bytes float64) {
	ops, bytes = f.Unfused()
	return ops - f.SavedOps, bytes - f.SavedBytes
}

// predictedGain returns the roofline speedup t_unfused/t_fused for a
// core with the given weighted-op rate (ops/s) and memory bandwidth
// (bytes/s). On a bandwidth-bound core this approaches BandwidthBound;
// on a compute-bound core it approaches the ops ratio.
func (f Fusion) predictedGain(opsRate, byteRate float64) float64 {
	uo, ub := f.Unfused()
	fo, fb := f.Fused()
	tu := maxf(uo/opsRate, ub/byteRate)
	tf := maxf(fo/opsRate, fb/byteRate)
	return tu / tf
}

// BandwidthBound returns the limiting speedup when the pass is memory
// bound: the ratio of off-chip bytes moved. This is the "vs platform
// bandwidth" column of the roofline readout — no core can gain more
// than this from the fusion alone once bandwidth is the wall.
func (f Fusion) BandwidthBound() float64 {
	_, ub := f.Unfused()
	_, fb := f.Fused()
	return ub / fb
}

// GainOn evaluates predictedGain with platform p's per-core rates
// (device rates for GPU platforms, which have no CoreBW).
func (f Fusion) GainOn(p *Platform) float64 {
	opsRate := p.GHz * 1e9 * p.OpsPerCycle
	byteRate := p.CoreBW * 1e9
	if p.CoreBW == 0 {
		opsRate = p.GPUTflops * 1e12
		byteRate = p.GPUBW * 1e9
	}
	return f.predictedGain(opsRate, byteRate)
}

// fusedKernel returns a Kernel descriptor for the merged pass, for use
// with kernelTime/OverallOf. Per-element work is the unfused sum minus
// the savings; calls per step come from the members (which must agree —
// a fusion merges kernels that run together). Fusing merges the
// parallel loop bodies only: each member's serialised work (the nodal
// scatter in getgeom, the reduction expansion in getdt) survives
// unchanged, so the merged SerialFrac preserves the absolute serial
// ops, Σ frac_i·Ops_i, over the fused ops — not the members' maximum,
// which would charge the whole merged pass at the worst fraction. The
// device corrections do take the most pessimistic member: a fused body
// needs the union of the registers.
func (f Fusion) fusedKernel() Kernel {
	ops, bytes := f.Fused()
	merged := Kernel{Name: f.Name, Ops: ops, Bytes: bytes, Launches: 1}
	var serialOps float64
	for i, name := range f.Replaces {
		k, _ := kernelByName(name)
		if i == 0 {
			merged.CallsPerStep = k.CallsPerStep
		} else if k.CallsPerStep != merged.CallsPerStep {
			panic("machine: fusion " + f.Name + " merges kernels with different call counts")
		}
		serialOps += k.SerialFrac * k.Ops
		merged.GatherBytes += k.GatherBytes
		merged.GPUDerate = maxf(merged.GPUDerate, k.GPUDerate)
		merged.CUDAExtra = maxf(merged.CUDAExtra, k.CUDAExtra)
		merged.Arrays = maxf(merged.Arrays, k.Arrays)
		if k.HostOnlyCUDA {
			merged.HostOnlyCUDA = true
			merged.TransferBytes = k.TransferBytes
			merged.HostOps = k.HostOps
		}
	}
	merged.SerialFrac = serialOps / ops
	// The merge eliminates some repeated gathers along with the rest of
	// SavedBytes, but the split is not tracked per fusion; summing the
	// members keeps the locality-sensitive share conservative, clamped
	// so it can never exceed the merged traffic.
	if merged.GatherBytes > merged.Bytes {
		merged.GatherBytes = merged.Bytes
	}
	return merged
}

// FusedKernels returns the per-step kernel inventory with the fusions
// applied: each fusion's members collapse into one merged descriptor
// (emitted at the first member's position) and uncovered kernels
// (getacc) pass through unchanged.
func FusedKernels() []Kernel {
	covered := map[string]*Fusion{}
	for i := range Fusions {
		for _, name := range Fusions[i].Replaces {
			covered[name] = &Fusions[i]
		}
	}
	emitted := map[string]bool{}
	var out []Kernel
	for _, k := range Kernels {
		f, ok := covered[k.Name]
		if !ok {
			out = append(out, k)
			continue
		}
		if !emitted[f.Name] {
			emitted[f.Name] = true
			out = append(out, f.fusedKernel())
		}
	}
	return out
}
