package machine

import (
	"math"
	"testing"
)

func rows() map[string]PaperRow {
	w := Table2Workload()
	out := make(map[string]PaperRow)
	for _, p := range Platforms() {
		out[p.Name] = ModelRow(p, w)
	}
	return out
}

func paper() map[string]PaperRow {
	out := make(map[string]PaperRow)
	for _, r := range PaperTable2 {
		out[r.Name] = r
	}
	return out
}

// The headline single-node finding: flat MPI beats hybrid on both CPU
// generations.
func TestFlatMPIBeatsHybrid(t *testing.T) {
	m := rows()
	if m["Skylake MPI"].Overall >= m["Skylake Hybrid"].Overall {
		t.Fatalf("Skylake: MPI %v !< Hybrid %v", m["Skylake MPI"].Overall, m["Skylake Hybrid"].Overall)
	}
	if m["Broadwell MPI"].Overall >= m["Broadwell Hybrid"].Overall {
		t.Fatalf("Broadwell: MPI %v !< Hybrid %v", m["Broadwell MPI"].Overall, m["Broadwell Hybrid"].Overall)
	}
}

// Viscosity dominates flat-MPI CPU runs (70%/64% in the paper).
func TestViscosityDominatesFlatRuns(t *testing.T) {
	m := rows()
	for _, name := range []string{"Skylake MPI", "Broadwell MPI"} {
		share := m[name].Visc / m[name].Overall
		if share < 0.5 || share > 0.8 {
			t.Fatalf("%s viscosity share %v outside [0.5, 0.8]", name, share)
		}
	}
}

// "The hybrid solution is within 5% of the performance of the flat MPI
// solution" for the viscosity kernel — allow 20% in the model.
func TestHybridViscosityCloseToFlat(t *testing.T) {
	m := rows()
	ratio := m["Skylake Hybrid"].Visc / m["Skylake MPI"].Visc
	if ratio > 1.25 {
		t.Fatalf("hybrid viscosity %vx of flat, want close to 1", ratio)
	}
}

// The acceleration kernel's data dependency makes hybrid markedly
// slower (2.4x in the paper).
func TestHybridAccelerationPenalty(t *testing.T) {
	m := rows()
	ratio := m["Skylake Hybrid"].Acc / m["Skylake MPI"].Acc
	if ratio < 1.8 || ratio > 4 {
		t.Fatalf("hybrid acceleration penalty %vx outside [1.8, 4]", ratio)
	}
}

// getdt (reduction kernel) is the other big hybrid loser (6x paper).
func TestHybridGetDtPenalty(t *testing.T) {
	m := rows()
	ratio := m["Skylake Hybrid"].GetDt / m["Skylake MPI"].GetDt
	if ratio < 3 {
		t.Fatalf("hybrid getdt penalty %vx, want >= 3", ratio)
	}
}

// GPU ordering: P100 CUDA slowest; OpenMP offload beats CUDA on the
// P100; V100 CUDA beats P100 CUDA.
func TestGPUOrdering(t *testing.T) {
	m := rows()
	if !(m["P100 (OpenMP)"].Overall < m["P100 (CUDA)"].Overall) {
		t.Fatalf("P100 OpenMP %v !< P100 CUDA %v", m["P100 (OpenMP)"].Overall, m["P100 (CUDA)"].Overall)
	}
	if !(m["V100 (CUDA)"].Overall < m["P100 (CUDA)"].Overall) {
		t.Fatalf("V100 %v !< P100 CUDA %v", m["V100 (CUDA)"].Overall, m["P100 (CUDA)"].Overall)
	}
}

// GPUs are slower than flat-MPI CPUs overall for BookLeaf.
func TestGPUsSlowerThanFlatCPU(t *testing.T) {
	m := rows()
	for _, gpu := range []string{"P100 (OpenMP)", "P100 (CUDA)", "V100 (CUDA)"} {
		if m[gpu].Overall <= m["Skylake MPI"].Overall {
			t.Fatalf("%s (%v) not slower than Skylake MPI (%v)", gpu, m[gpu].Overall, m["Skylake MPI"].Overall)
		}
	}
}

// The CUDA host-side time differential kernel does not get faster on
// the newer GPU (44.4 vs 40.4 in the paper — host bound).
func TestCUDAGetDtHostBound(t *testing.T) {
	m := rows()
	p, v := m["P100 (CUDA)"].GetDt, m["V100 (CUDA)"].GetDt
	if math.Abs(p-v)/p > 0.1 {
		t.Fatalf("CUDA getdt should be host-bound: P100 %v vs V100 %v", p, v)
	}
}

// Model tracks the paper within a factor band per entry; overall within
// 25% per configuration.
func TestModelTracksPaperOverall(t *testing.T) {
	m, ref := rows(), paper()
	for name, r := range ref {
		got := m[name].Overall
		if got < 0.75*r.Overall || got > 1.25*r.Overall {
			t.Fatalf("%s overall %v outside 25%% of paper %v", name, got, r.Overall)
		}
	}
}

// Per-kernel model entries within a factor 2 of the paper (shape
// holds; EXPERIMENTS.md records the exact ratios).
func TestModelTracksPaperKernels(t *testing.T) {
	m, ref := rows(), paper()
	for name, r := range ref {
		g := m[name]
		checks := []struct {
			k           string
			got, paperV float64
		}{
			{"visc", g.Visc, r.Visc},
			{"acc", g.Acc, r.Acc},
			{"getdt", g.GetDt, r.GetDt},
			{"getgeom", g.GetGeom, r.GetGeom},
			{"getpc", g.GetPC, r.GetPC},
		}
		for _, c := range checks {
			if c.got < c.paperV/2.1 || c.got > c.paperV*2.1 {
				t.Fatalf("%s %s: model %v vs paper %v (factor > 2.1)", name, c.k, c.got, c.paperV)
			}
		}
	}
}

func TestStrongScalingSuperlinearThenLinear(t *testing.T) {
	w := Fig3Workload()
	for _, p := range Platforms() {
		if p.Exec != Hybrid {
			continue
		}
		pts := p.StrongScaling(w, []int{8, 16, 32, 64})
		s1 := pts[0].Overall / pts[1].Overall // 8 -> 16
		s2 := pts[1].Overall / pts[2].Overall // 16 -> 32
		s3 := pts[2].Overall / pts[3].Overall // 32 -> 64
		if s1 < 2.2 {
			t.Fatalf("%s: 8->16 speedup %v not superlinear", p.Name, s1)
		}
		if s2 < 1.7 || s2 > 2.6 || s3 < 1.6 || s3 > 2.3 {
			t.Fatalf("%s: post-crossover speedups %v, %v not near-linear", p.Name, s2, s3)
		}
	}
}

func TestStrongScalingMatchesPaperWithin35Pct(t *testing.T) {
	w := Fig3Workload()
	for _, p := range Platforms() {
		if p.Exec != Hybrid {
			continue
		}
		cpu := "Skylake"
		if p.Name == "Broadwell Hybrid" {
			cpu = "Broadwell"
		}
		pts := p.StrongScaling(w, []int{8, 16, 32, 64})
		for i, pt := range pts {
			ref := PaperFig3[cpu][i].Secs
			if pt.Overall < 0.65*ref || pt.Overall > 1.35*ref {
				t.Fatalf("%s %d nodes: model %v vs paper %v", cpu, pt.Nodes, pt.Overall, ref)
			}
		}
	}
}

func TestSkylakeFasterThanBroadwellAtScale(t *testing.T) {
	w := Fig3Workload()
	ps := Platforms()
	var skl, bdw []ScalingPoint
	for i := range ps {
		if ps[i].Name == "Skylake Hybrid" {
			skl = ps[i].StrongScaling(w, []int{8, 16, 32, 64})
		}
		if ps[i].Name == "Broadwell Hybrid" {
			bdw = ps[i].StrongScaling(w, []int{8, 16, 32, 64})
		}
	}
	for i := range skl {
		if skl[i].Overall >= bdw[i].Overall {
			t.Fatalf("%d nodes: Skylake %v !< Broadwell %v", skl[i].Nodes, skl[i].Overall, bdw[i].Overall)
		}
	}
}

func TestKernelByName(t *testing.T) {
	if _, ok := kernelByName("getq"); !ok {
		t.Fatal("getq missing")
	}
	if _, ok := kernelByName("bogus"); ok {
		t.Fatal("bogus kernel found")
	}
}

func TestKernelInventoryComplete(t *testing.T) {
	want := []string{"getq", "getacc", "getdt", "getgeom", "getforce", "getpc", "getrho", "getein"}
	for _, n := range want {
		k, ok := kernelByName(n)
		if !ok {
			t.Fatalf("kernel %s missing", n)
		}
		if k.Ops <= 0 || k.Bytes <= 0 || k.CallsPerStep <= 0 {
			t.Fatalf("kernel %s has non-positive work: %+v", n, k)
		}
	}
	if len(Kernels) != len(want) {
		t.Fatalf("kernel count %d, want %d", len(Kernels), len(want))
	}
}

func TestPlatformsMatchTable1(t *testing.T) {
	ps := Platforms()
	if len(ps) != 7 {
		t.Fatalf("platform count %d, want 7 (Table II rows)", len(ps))
	}
	compilers := map[string]string{
		"Skylake MPI": "Cray", "Broadwell MPI": "Cray",
		"P100 (OpenMP)": "Cray", "P100 (CUDA)": "PGI", "V100 (CUDA)": "PGI",
	}
	for _, p := range ps {
		if want, ok := compilers[p.Name]; ok && p.Compiler != want {
			t.Fatalf("%s compiler %s, want %s", p.Name, p.Compiler, want)
		}
	}
}

func TestExecModelStrings(t *testing.T) {
	if FlatMPI.String() != "MPI" || Hybrid.String() != "Hybrid" ||
		OffloadOpenMP.String() != "OpenMP" || CUDA.String() != "CUDA" {
		t.Fatal("exec model names wrong")
	}
}

func TestCacheFactorMonotone(t *testing.T) {
	c := 100e6
	prev := cacheFactor(1e3, c)
	for ws := 1e4; ws < 1e12; ws *= 2 {
		f := cacheFactor(ws, c)
		if f < prev-1e-12 {
			t.Fatalf("cache factor not monotone at ws=%v", ws)
		}
		prev = f
	}
	if f := cacheFactor(1e3, c); f >= cacheFactor(1e12, c) {
		t.Fatal("cached working set not faster")
	}
}

// The paper's future-work claim: device-side reductions (CUB) would
// remove the CUDA getdt penalty.
func TestWhatIfCUDAFixedReductions(t *testing.T) {
	w := Table2Workload()
	for _, p := range Platforms() {
		if p.Exec != CUDA {
			continue
		}
		base := ModelRow(p, w)
		fixed := CUDAFixedDtRow(p, w)
		if fixed.Overall >= base.Overall {
			t.Fatalf("%s: CUB fix did not help: %v >= %v", p.Name, fixed.Overall, base.Overall)
		}
		if fixed.GetDt >= base.GetDt/3 {
			t.Fatalf("%s: device getdt %v not well below host %v", p.Name, fixed.GetDt, base.GetDt)
		}
	}
	// Non-CUDA platforms are untouched.
	ps := Platforms()
	if got := CUDAFixedDtRow(ps[0], w); got.Overall != ModelRow(ps[0], w).Overall {
		t.Fatal("what-if changed a CPU platform")
	}
}
