package machine

// PaperRow holds the paper's Table II measurements (seconds) for one
// platform configuration: overall runtime and the six kernels the
// paper breaks out. These are the reference values EXPERIMENTS.md and
// cmd/bleaf-tables compare the model against.
type PaperRow struct {
	Name     string
	Overall  float64
	Visc     float64 // getq
	Acc      float64 // getacc
	GetDt    float64
	GetGeom  float64
	GetForce float64
	GetPC    float64
}

// PaperTable2 is Table II of the paper: per-kernel performance
// breakdown for the Noh problem on a single node.
var PaperTable2 = []PaperRow{
	{"Skylake MPI", 76.068, 46.365, 6.663, 8.880, 3.396, 5.364, 1.314},
	{"Skylake Hybrid", 168.633, 52.913, 15.923, 53.086, 26.654, 4.925, 2.054},
	{"Broadwell MPI", 108.978, 70.116, 8.386, 11.936, 4.834, 7.348, 1.390},
	{"Broadwell Hybrid", 180.438, 76.387, 16.142, 45.494, 20.764, 6.501, 2.108},
	{"P100 (OpenMP)", 186.506, 75.873, 26.806, 12.684, 16.784, 40.853, 3.608},
	{"P100 (CUDA)", 261.183, 97.445, 21.995, 40.433, 39.448, 0.536, 17.922},
	{"V100 (CUDA)", 191.636, 44.981, 11.442, 44.401, 14.789, 0.651, 10.051},
}

// PaperFig3 holds the approximate series of Figure 3 (overall Sod
// strong-scaling execution time, hybrid, seconds), read from the
// log-scale plot.
var PaperFig3 = map[string][]struct {
	Nodes int
	Secs  float64
}{
	"Skylake":   {{8, 2400}, {16, 600}, {32, 330}, {64, 190}},
	"Broadwell": {{8, 3200}, {16, 800}, {32, 440}, {64, 260}},
}

// ModelRow evaluates the model for one platform over the Table II
// workload and returns it shaped like a PaperRow.
func ModelRow(p Platform, w Workload) PaperRow {
	get := func(name string) float64 {
		k, ok := kernelByName(name)
		if !ok {
			return 0
		}
		return p.kernelTime(k, w)
	}
	return PaperRow{
		Name:     p.Name,
		Overall:  p.Overall(w),
		Visc:     get("getq"),
		Acc:      get("getacc"),
		GetDt:    get("getdt"),
		GetGeom:  get("getgeom"),
		GetForce: get("getforce"),
		GetPC:    get("getpc"),
	}
}

// CUDAFixedDtRow models the paper's future-work scenario: "the
// reduction primitives provided by the NVIDIA CUDA Unbound (CUB)
// library allow a proper implementation of the time differential
// calculation on GPUs". The getdt kernel moves onto the device (same
// derate as the OpenMP offload path, which does run its reductions on
// the GPU) and the per-step host synchronisation disappears.
func CUDAFixedDtRow(p Platform, w Workload) PaperRow {
	if p.Exec != CUDA {
		return ModelRow(p, w)
	}
	fixed := p
	fixed.SyncCost = 0
	row := PaperRow{Name: p.Name + " + CUB"}
	for _, k := range Kernels {
		if k.Name == "getdt" {
			k.HostOnlyCUDA = false
		}
		t := fixed.kernelTime(k, w)
		row.Overall += t
		switch k.Name {
		case "getq":
			row.Visc = t
		case "getacc":
			row.Acc = t
		case "getdt":
			row.GetDt = t
		case "getgeom":
			row.GetGeom = t
		case "getforce":
			row.GetForce = t
		case "getpc":
			row.GetPC = t
		}
	}
	return row
}
