package machine

import "math"

// ScalingWorkload is the multi-node strong-scaling study of the paper's
// Figures 3 and 4: the Sod solver, hybrid MPI+OpenMP, scaled from 8 to
// 64 Cray XC50 nodes.
type ScalingWorkload struct {
	// NEl is the global element count; Steps the step count.
	NEl, Steps int
	// HotBytes is the per-element hot working set of the main loop
	// (the arrays re-touched every kernel); when a node's share fits
	// in last-level cache the effective bandwidth rises, producing
	// the superlinear region the paper observes between 8 and 16
	// nodes.
	HotBytes float64
	// NetBW (GB/s) and NetLatency (s) describe the Aries network.
	NetBW, NetLatency float64
}

// Fig3Workload returns the modelled Sod scaling workload, sized so the
// cache crossover falls between 8 and 16 nodes as in the paper.
func Fig3Workload() ScalingWorkload {
	return ScalingWorkload{
		NEl:      24_000_000,
		Steps:    45_000,
		HotBytes: 40,
		NetBW:    10, NetLatency: 1.5e-6,
	}
}

// ScalingPoint is one node count of the strong-scaling study.
type ScalingPoint struct {
	Nodes   int
	Overall float64
	// Viscosity and Acceleration are the per-kernel times of
	// Figures 4a and 4b.
	Viscosity, Acceleration float64
}

// cacheFactor returns the effective-time multiplier (< 1 is faster)
// for a per-node hot working set ws against the node's last-level
// cache. The transition is smoothed over a factor-of-two window.
func cacheFactor(wsBytes, cacheBytes float64) float64 {
	const boost = 3.2 // in-cache bandwidth advantage
	// Sigmoid in log2 space centred on the cache size.
	x := math.Log2(wsBytes / cacheBytes)
	s := 1 / (1 + math.Exp(-3.2*x)) // 0 when cached, 1 when not
	return (1 + (boost-1)*s) / boost
}

// llc returns the node's last-level cache in bytes (per-core L2 plus
// shared L3, both sockets).
func (p *Platform) llc() float64 {
	switch p.Name[:4] {
	case "Skyl":
		// 28 cores x 1 MiB L2 + 38.5 MiB L3, two sockets.
		return 2 * (28*1.0 + 38.5) * 1 << 20
	case "Broa":
		// 22 cores x 256 KiB L2 + 55 MiB L3, two sockets.
		return 2 * (22*0.25 + 55) * 1 << 20
	default:
		return 64 << 20
	}
}

// StrongScaling returns modelled times for the hybrid execution of the
// workload across the given node counts.
func (p *Platform) StrongScaling(w ScalingWorkload, nodes []int) []ScalingPoint {
	out := make([]ScalingPoint, 0, len(nodes))
	for _, n := range nodes {
		nel := w.NEl / n
		ws := float64(nel) * w.HotBytes
		cf := cacheFactor(ws, p.llc())
		// Normalise: far-out-of-cache behaviour matches the flat
		// roofline (factor 1), cached regions run faster.
		cfOut := cacheFactor(math.Inf(1), p.llc())
		cf = cf / cfOut

		var overall, visc, acc float64
		sub := Workload{NEl: nel, Steps: w.Steps}
		for _, k := range Kernels {
			t := p.kernelTime(k, sub) * cf
			overall += t
			switch k.Name {
			case "getq":
				visc = t
			case "getacc":
				acc = t
			}
		}
		// Halo exchange: two exchanges per step over the partition
		// surface (~4 sqrt(nel) elements of ~200 B), plus the global
		// dt reduction latency (log2 nodes hops).
		surface := 4 * math.Sqrt(float64(nel)) * 200
		comm := float64(w.Steps) * (2*(surface/(w.NetBW*1e9)+w.NetLatency) +
			math.Log2(float64(n)+1)*w.NetLatency)
		overall += comm
		visc += comm / 2
		acc += comm / 2
		out = append(out, ScalingPoint{Nodes: n, Overall: overall, Viscosity: visc, Acceleration: acc})
	}
	return out
}
