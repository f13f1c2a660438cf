// Command bleaf-tables regenerates every table and figure of the
// paper's evaluation section:
//
//	-table1   experimental configurations (platform registry)
//	-table2   per-kernel breakdown, model vs paper (Noh, single node);
//	          its overall, viscosity and acceleration columns are
//	          Figures 1, 2a and 2b
//	-fig3     Sod hybrid strong scaling 8-64 nodes: overall (Figure 3)
//	          with the viscosity and acceleration kernel columns
//	          (Figures 4a and 4b)
//	-real     additionally run the real Go implementation on this host
//	          (reduced-size Noh) and print its measured flat-vs-hybrid
//	          per-kernel breakdown — the same experiment at laptop scale
//	-all      everything
//
// Platform seconds come from internal/machine: a roofline +
// execution-model performance model of the paper's hardware (see
// DESIGN.md for the substitution rationale); the paper's numbers are
// printed alongside so shape agreement is visible directly. A failed
// run or mesh generation ends the command with exit status 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"bookleaf"
	"bookleaf/internal/machine"
	"bookleaf/internal/order"
	"bookleaf/internal/setup"
)

func main() {
	var (
		t1     = flag.Bool("table1", false, "print Table I")
		t2     = flag.Bool("table2", false, "print Table II (model vs paper; Figures 1, 2a and 2b are its overall, visc and accel columns)")
		f3     = flag.Bool("fig3", false, "print Figure 3 with the Figure 4a/4b kernel columns")
		real   = flag.Bool("real", false, "run the real implementation at reduced scale")
		whatif = flag.Bool("whatif", false, "model the paper's future-work CUB scenario")
		roofl  = flag.Bool("roofline", false, "print the kernel-fusion roofline readout")
		reord  = flag.Bool("reorder", false, "print the mesh-renumbering locality readout")
		all    = flag.Bool("all", false, "print everything")
	)
	flag.Parse()
	if *all {
		*t1, *t2, *f3, *real, *whatif, *roofl, *reord = true, true, true, true, true, true, true
	}
	if !(*t1 || *t2 || *f3 || *real || *whatif || *roofl || *reord) {
		flag.Usage()
		return
	}

	if *t1 {
		table1()
	}
	if *t2 {
		table2()
	}
	if *f3 {
		figure3()
	}
	if *whatif {
		whatIf()
	}
	if *roofl {
		roofline()
	}
	var err error
	if *reord {
		err = reorderReadout()
	}
	if *real && err == nil {
		err = realRuns()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bleaf-tables:", err)
		os.Exit(1)
	}
}

// roofline prints the kernel-fusion readout: per-element off-chip
// bytes and weighted ops of each fused pass against the kernels it
// replaces, the bandwidth-bound speedup limit, and the predicted
// roofline gain on the CPU platforms. EXPERIMENTS.md pairs these
// predictions with the measured fused-vs-unfused benchmark deltas
// (BenchmarkStepFusion and the per-fusion micro-benchmarks).
func roofline() {
	fmt.Println("== Kernel-fusion roofline (per element, -fuse vs unfused) ==")
	fmt.Printf("%-10s %-32s %7s %7s %7s %7s %9s %9s %9s\n",
		"fusion", "replaces", "bytes", "fused", "ops", "fused", "bw-bound", "Skylake", "Broadwell")
	var skl, bdw machine.Platform
	for _, p := range machine.Platforms() {
		switch p.Name {
		case "Skylake MPI":
			skl = p
		case "Broadwell MPI":
			bdw = p
		}
	}
	for _, f := range machine.Fusions {
		uo, ub := f.Unfused()
		fo, fb := f.Fused()
		fmt.Printf("%-10s %-32s %7.0f %7.0f %7.0f %7.0f %8.2fx %8.2fx %8.2fx\n",
			f.Name, strings.Join(f.Replaces, "+"), ub, fb, uo, fo,
			f.BandwidthBound(), f.GainOn(&skl), f.GainOn(&bdw))
	}
	w := machine.Table2Workload()
	fmt.Printf("%-10s modelled step speedup: Skylake %.2fx, Broadwell %.2fx (Table II workload)\n",
		"overall", skl.Overall(w)/skl.OverallOf(machine.FusedKernels(), w),
		bdw.Overall(w)/bdw.OverallOf(machine.FusedKernels(), w))
	fmt.Println()
}

// reorderReadout prints the mesh-renumbering locality readout on the
// BenchmarkStepGrid mesh and on a square one: the reuse-distance proxy
// of each numbering, the gather derate it implies against the generator's
// row-major sweep, and the predicted step speedup on the
// bandwidth-bound CPU platforms. EXPERIMENTS.md pairs these with the
// measured ns/el from the grid benchmark.
func reorderReadout() error {
	var skl, bdw machine.Platform
	for _, pl := range machine.Platforms() {
		switch pl.Name {
		case "Skylake MPI":
			skl = pl
		case "Broadwell MPI":
			bdw = pl
		}
	}
	// Two regimes. On the wide Sod strong-scaling mesh (the
	// BenchmarkStepGrid geometry) the row-major sweep re-touches a node
	// row only after streaming the whole 8192-element row between — far
	// past any cache — so the numbering decides whether gathers hit;
	// this is where the renumbering pays. On a laptop-scale square mesh the
	// ~194-node row-to-row working set already fits L1 and the proxy
	// correctly predicts (and measurement confirms) roughly nothing.
	for _, mesh := range []struct {
		name   string
		nx, ny int
		gen    func(int, int) (*setup.Problem, error)
	}{
		{"Sod 8192x8 (grid-benchmark mesh)", 8192, 8, setup.Sod},
		{"Noh 192x192 (square, row fits cache)", 192, 192, setup.Noh},
	} {
		p, err := mesh.gen(mesh.nx, mesh.ny)
		if err != nil {
			return err
		}
		fmt.Printf("== Mesh renumbering locality readout (%s, reuse window %d) ==\n",
			mesh.name, machine.DefaultReuseWindow)
		base := machine.MeshReuse(p.Mesh.ElNd, p.Mesh.NNd, 0)
		fmt.Printf("%-10s %10s %10s %8s %10s %10s\n",
			"reorder", "miss-rate", "span", "derate", "Skylake", "Broadwell")
		for _, kind := range []order.Kind{order.None, order.Hilbert, order.RCM} {
			m, err := order.Reorder(p.Mesh, kind)
			if err != nil {
				return fmt.Errorf("%s: %w", kind, err)
			}
			loc := machine.MeshReuse(m.ElNd, m.NNd, 0)
			fmt.Printf("%-10s %10.4f %10.1f %7.3fx %9.3fx %9.3fx\n",
				kind, loc.MissRate, loc.Span, machine.GatherDerate(loc, base),
				machine.PredictReorderGain(&skl, machine.FusedKernels(), m.NEl, base, loc),
				machine.PredictReorderGain(&bdw, machine.FusedKernels(), m.NEl, base, loc))
		}
		fmt.Println()
	}
	return nil
}

// whatIf prints the paper's future-work scenario: CUDA with proper
// device-side reductions (CUB), removing the host-bound time
// differential kernel.
func whatIf() {
	w := machine.Table2Workload()
	fmt.Println("== What-if (paper future work): CUDA with CUB device reductions ==")
	fmt.Printf("%-14s %12s %12s %10s %12s %12s\n",
		"config", "overall now", "with CUB", "speedup", "getdt now", "getdt CUB")
	for _, p := range machine.Platforms() {
		if p.Exec != machine.CUDA {
			continue
		}
		base := machine.ModelRow(p, w)
		fixed := machine.CUDAFixedDtRow(p, w)
		fmt.Printf("%-14s %12.1f %12.1f %9.2fx %12.1f %12.1f\n",
			p.Name, base.Overall, fixed.Overall, base.Overall/fixed.Overall,
			base.GetDt, fixed.GetDt)
	}
	fmt.Println()
}

func table1() {
	fmt.Println("== Table I: experimental configuration ==")
	fmt.Printf("%-18s %-22s %-9s %s\n", "Hardware", "System", "Compiler", "Compiler Flags")
	seen := map[string]bool{}
	for _, p := range machine.Platforms() {
		key := p.Name + p.System
		if seen[key] {
			continue
		}
		seen[key] = true
		fmt.Printf("%-18s %-22s %-9s %s\n", p.Name, p.System, p.Compiler, p.Flags)
	}
	fmt.Println()
}

func table2() {
	w := machine.Table2Workload()
	fmt.Println("== Table II: per-kernel breakdown, Noh, single node (seconds) ==")
	fmt.Println("Figures 1, 2a and 2b are its overall, visc and accel columns")
	fmt.Printf("modelled workload: %d elements, %d steps\n", w.NEl, w.Steps)
	fmt.Printf("%-18s %9s %9s %9s %9s %9s %9s %9s\n",
		"config", "overall", "visc", "accel", "getdt", "getgeom", "getforce", "getpc")
	for i, p := range machine.Platforms() {
		m := machine.ModelRow(p, w)
		r := machine.PaperTable2[i]
		fmt.Printf("%-18s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f   <- model\n",
			m.Name, m.Overall, m.Visc, m.Acc, m.GetDt, m.GetGeom, m.GetForce, m.GetPC)
		fmt.Printf("%-18s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f   <- paper\n",
			"", r.Overall, r.Visc, r.Acc, r.GetDt, r.GetGeom, r.GetForce, r.GetPC)
	}
	fmt.Println()
}

func figure3() {
	w := machine.Fig3Workload()
	nodes := []int{8, 16, 32, 64}
	for _, p := range machine.Platforms() {
		if p.Exec != machine.Hybrid {
			continue
		}
		cpu := "Skylake"
		if p.Name == "Broadwell Hybrid" {
			cpu = "Broadwell"
		}
		fmt.Printf("== Figures 3, 4a, 4b: Sod hybrid strong scaling, %s (s) ==\n", cpu)
		fmt.Printf("%-6s %10s %10s %10s %10s %10s\n", "nodes", "model", "paper", "speedup", "visc", "accel")
		prev := 0.0
		for i, pt := range p.StrongScaling(w, nodes) {
			sp := "-"
			if prev > 0 {
				sp = fmt.Sprintf("%.2fx", prev/pt.Overall)
			}
			fmt.Printf("%-6d %10.0f %10.0f %10s %10.0f %10.0f\n",
				pt.Nodes, pt.Overall, machine.PaperFig3[cpu][i].Secs, sp, pt.Viscosity, pt.Acceleration)
			prev = pt.Overall
		}
		fmt.Println()
	}
}

// realRuns executes the actual Go implementation at reduced scale on
// this host: flat goroutine-ranks versus one rank with threads, the
// same single-node contrast the paper measures, plus a rank-scaling
// sweep (the real analogue of Figure 3).
func realRuns() error {
	ncpu := runtime.NumCPU()
	ranks := ncpu
	if ranks > 8 {
		ranks = 8
	}
	if ranks < 4 {
		ranks = 4
	}
	fmt.Printf("== Real runs on this host (%d CPUs): Noh %dx%d ==\n", ncpu, 96, 96)
	if ncpu < ranks {
		fmt.Printf("note: only %d CPU(s) available — goroutine ranks oversubscribe the core,\n", ncpu)
		fmt.Println("so these runs demonstrate the communication structure and correctness")
		fmt.Println("rather than speedup; see the machine model for the full-scale numbers.")
	}
	for _, mode := range []struct {
		name   string
		ranks  int
		thread int
	}{
		{"flat", ranks, 1},
		{"hybrid", 1, ranks},
	} {
		// NoFuse: this experiment reproduces the paper's per-kernel
		// breakdown, which only the unfused schedule reports.
		res, err := bookleaf.Run(bookleaf.Config{
			Problem: "noh", NX: 96, NY: 96,
			Ranks: mode.ranks, Threads: mode.thread,
			NoFuse: true,
		})
		if err != nil {
			return err
		}
		total := 0.0
		for _, s := range res.Timers {
			total += s
		}
		fmt.Printf("%-8s (%d ranks x %d threads): overall %.2fs  getq %.2fs (%.0f%%)  getacc %.2fs  getdt %.2fs\n",
			mode.name, mode.ranks, mode.thread, total,
			res.Timers["getq"], 100*res.Timers["getq"]/total,
			res.Timers["getacc"], res.Timers["getdt"])
	}
	fmt.Println()
	fmt.Println("== Real strong scaling on this host: Sod 256x8, Lagrangian ==")
	fmt.Printf("%-6s %10s %10s\n", "ranks", "wall(s)", "speedup")
	base := 0.0
	for _, r := range []int{1, 2, 4, ranks} {
		res, err := bookleaf.Run(bookleaf.Config{Problem: "sod", NX: 256, NY: 8, Ranks: r})
		if err != nil {
			return err
		}
		total := 0.0
		for _, s := range res.Timers {
			total += s
		}
		if base == 0 {
			base = total
		}
		fmt.Printf("%-6d %10.2f %9.2fx\n", r, total, base/total)
	}
	fmt.Println()
	return nil
}
