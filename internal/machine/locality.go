// Mesh-locality proxy: the model-side view of the renumbering pass in
// internal/order (see DESIGN.md §15). The hot kernels' off-chip traffic
// splits into streamed element arrays — whose cost no numbering can
// change — and indirect corner gathers through the element→node map,
// whose cost depends entirely on how soon a node is re-touched after its
// cache line was last filled. This file measures that as a reuse-window
// miss rate over the element sweep and folds it into the roofline, so
// the model predicts the reorder gain the same way it predicts the
// fusion gain: as a bytes ratio, sitting next to the measured delta.

package machine

// Locality is a measured traversal profile of one element sweep over a
// mesh numbering.
type Locality struct {
	// Window is the reuse window in elements the profile was taken at:
	// a node touch hits when some element within the last Window
	// elements of the sweep touched it (its line is still resident).
	Window int
	// MissRate is the fraction of the sweep's 4·NEl corner touches
	// that miss the window — compulsory first touches included, since
	// the memory system pays for those lines too.
	MissRate float64
	// Span is the mean index span (max−min corner node id) of one
	// element's gather, in nodes: the indirection-span proxy. A
	// row-major numbering has spans of about the mesh width; a
	// locality order pulls it down to O(1)–O(window).
	Span float64
}

// DefaultReuseWindow approximates how many elements of hot corner data
// a per-core L2 holds: at ~50 B of node lines per element, 4096
// elements is ~200 KiB — between the testbed's 256 KiB (Broadwell) and
// 1 MiB (Skylake) L2 slices. The bench records profiles at this window;
// callers with a specific cache in mind pass their own.
const DefaultReuseWindow = 4096

// MeshReuse profiles one sweep e = 0..len(elnd)-1 over the element→node
// map, with nnd nodes and the given reuse window (<= 0 selects
// DefaultReuseWindow). The numbering under test is the order of elnd
// itself: profile a renumbered mesh by passing its ElNd.
func MeshReuse(elnd [][4]int32, nnd, window int) Locality {
	if window <= 0 {
		window = DefaultReuseWindow
	}
	last := make([]int, nnd)
	for i := range last {
		last[i] = -1
	}
	var misses, spanSum float64
	for e := range elnd {
		lo, hi := elnd[e][0], elnd[e][0]
		for k := 0; k < 4; k++ {
			n := elnd[e][k]
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
			if last[n] < 0 || e-last[n] > window {
				misses++
			}
			last[n] = e
		}
		spanSum += float64(hi - lo)
	}
	touches := 4 * float64(len(elnd))
	if touches == 0 {
		return Locality{Window: window}
	}
	return Locality{
		Window:   window,
		MissRate: misses / touches,
		Span:     spanSum / float64(len(elnd)),
	}
}

// GatherDerate converts two profiles into the multiplier on a kernel's
// indirect gather bytes: traffic scales with the miss rate, relative to
// the baseline numbering the Kernels table's Bytes were calibrated on
// (the generators' row-major sweep). Clamped to [1/8, 8] — no
// renumbering can cut gather traffic below the compulsory line fills
// (already a small share of the baseline misses on any wide mesh) nor
// inflate it past every touch missing.
func GatherDerate(loc, base Locality) float64 {
	if !(base.MissRate > 0) || !(loc.MissRate >= 0) {
		return 1
	}
	r := loc.MissRate / base.MissRate
	if r < 0.125 {
		r = 0.125
	}
	if r > 8 {
		r = 8
	}
	return r
}

// effectiveBytes is the kernel's per-element off-chip traffic with its
// gather share rescaled by derate: streamed bytes are numbering-
// invariant, only the GatherBytes share moves.
func (k Kernel) effectiveBytes(derate float64) float64 {
	return k.Bytes - k.GatherBytes + k.GatherBytes*derate
}

// stepTimeLocal is the flat-roofline per-step seconds of inventory ks
// at nel elements with the gather derate applied — the locality-aware
// sibling of OverallOf over one step. Only the CPU execution models
// carry a locality correction (the measured meshes live there); device
// platforms fall back to the uncorrected time.
func (p *Platform) stepTimeLocal(ks []Kernel, nel int, derate float64) float64 {
	w := Workload{NEl: nel, Steps: 1}
	var sum float64
	for _, k := range ks {
		switch p.Exec {
		case FlatMPI, Hybrid:
			adj := k
			adj.Bytes = k.effectiveBytes(derate)
			sum += p.kernelTime(adj, w)
		default:
			sum += p.kernelTime(k, w)
		}
	}
	return sum
}

// PredictReorderGain is the modelled speedup of running inventory ks on
// the numbering profiled as reord instead of base: the ratio of
// locality-adjusted step times, >1 when the reordering helps. The base
// profile derates to 1 by construction, so gain 1 means the numberings
// look alike to the cache.
func PredictReorderGain(p *Platform, ks []Kernel, nel int, base, reord Locality) float64 {
	tb := p.stepTimeLocal(ks, nel, GatherDerate(base, base))
	tr := p.stepTimeLocal(ks, nel, GatherDerate(reord, base))
	if !(tr > 0) {
		return 1
	}
	return tb / tr
}
