package machine

import (
	"math"
	"testing"
)

// maxf must match math.Max exactly: a NaN operand poisons the result
// (the naive a > b form returned the other operand, silently hiding a
// corrupted kernel descriptor) and +0 beats -0.
func TestMaxfMatchesMathMax(t *testing.T) {
	nan := math.NaN()
	vals := []float64{nan, math.Inf(1), math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, 2.5}
	for _, a := range vals {
		for _, b := range vals {
			got, want := maxf(a, b), math.Max(a, b)
			if math.IsNaN(want) {
				if !math.IsNaN(got) {
					t.Fatalf("maxf(%v, %v) = %v, want NaN", a, b, got)
				}
				continue
			}
			if got != want || math.Signbit(got) != math.Signbit(want) {
				t.Fatalf("maxf(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// A NaN in a descriptor must propagate through kernelTime rather than
// vanish into the other roofline arm.
func TestKernelTimeNaNPropagates(t *testing.T) {
	p := Platforms()[0]
	w := Table2Workload()
	k, _ := kernelByName("getq")
	k.Ops = math.NaN()
	if got := p.kernelTime(k, w); !math.IsNaN(got) {
		t.Fatalf("kernelTime with NaN ops = %v, want NaN", got)
	}
}

func TestFusionInventory(t *testing.T) {
	want := map[string][]string{
		"qforce":    {"getq", "getforce"},
		"lagupdate": {"getgeom", "getrho", "getein", "getpc"},
		"dtreduce":  {"getdt"},
	}
	if len(Fusions) != len(want) {
		t.Fatalf("fusion count %d, want %d", len(Fusions), len(want))
	}
	for _, f := range Fusions {
		name, members := f.Name, want[f.Name]
		if members == nil {
			t.Fatalf("fusion %s not in the inventory, or listed twice", name)
		}
		delete(want, name)
		if len(f.Replaces) != len(members) {
			t.Fatalf("%s replaces %v, want %v", name, f.Replaces, members)
		}
		for i, m := range members {
			if f.Replaces[i] != m {
				t.Fatalf("%s replaces %v, want %v", name, f.Replaces, members)
			}
		}
		if f.SavedBytes <= 0 {
			t.Fatalf("%s saves no bytes — not a fusion", name)
		}
	}
}

// A fusion can only remove traffic the Kernels table already charged:
// fused work is positive and strictly below the unfused sum.
func TestFusedWorkBelowUnfused(t *testing.T) {
	for _, f := range Fusions {
		uo, ub := f.Unfused()
		fo, fb := f.Fused()
		if !(fb > 0 && fb < ub) {
			t.Fatalf("%s: fused bytes %v outside (0, %v)", f.Name, fb, ub)
		}
		if !(fo > 0 && fo <= uo) {
			t.Fatalf("%s: fused ops %v outside (0, %v]", f.Name, fo, uo)
		}
		if bb := f.BandwidthBound(); bb != ub/fb {
			t.Fatalf("%s: bandwidth bound %v != byte ratio %v", f.Name, bb, ub/fb)
		}
	}
}

// predictedGain limits: on a bandwidth-starved core the gain is the
// byte ratio; on an infinite-bandwidth core it is the ops ratio; on
// any real platform it lies between (inclusive) and never hurts.
func TestPredictedGainLimits(t *testing.T) {
	for _, f := range Fusions {
		uo, ub := f.Unfused()
		fo, fb := f.Fused()
		memBound := f.predictedGain(1e18, 1e6)
		if math.Abs(memBound-ub/fb) > 1e-12 {
			t.Fatalf("%s: memory-bound gain %v, want %v", f.Name, memBound, ub/fb)
		}
		cpuBound := f.predictedGain(1e6, 1e18)
		if math.Abs(cpuBound-uo/fo) > 1e-12 {
			t.Fatalf("%s: compute-bound gain %v, want %v", f.Name, cpuBound, uo/fo)
		}
		for _, p := range Platforms() {
			g := f.GainOn(&p)
			lo := math.Min(uo/fo, ub/fb) - 1e-12
			hi := math.Max(uo/fo, ub/fb) + 1e-12
			if g < 1 || g < lo || g > hi {
				t.Fatalf("%s on %s: gain %v outside [%v, %v]", f.Name, p.Name, g, lo, hi)
			}
		}
	}
}

// kernelTime over the fused descriptors: each merged pass is modelled
// no slower than the kernels it replaces on the CPU platforms, where
// the fusions are implemented. (On the device models the merged
// descriptor inherits the worst member's register-pressure derate, so
// a fused what-if can legitimately come out slower there.)
func TestKernelTimeFusedEntries(t *testing.T) {
	w := Table2Workload()
	for _, p := range Platforms() {
		for _, f := range Fusions {
			fused := p.kernelTime(f.fusedKernel(), w)
			if fused <= 0 {
				t.Fatalf("%s on %s: non-positive fused time %v", f.Name, p.Name, fused)
			}
			if p.CoreBW == 0 {
				continue
			}
			var unfused float64
			for _, name := range f.Replaces {
				k, _ := kernelByName(name)
				unfused += p.kernelTime(k, w)
			}
			if fused > unfused*(1+1e-9) {
				t.Fatalf("%s on %s: fused %v slower than unfused %v", f.Name, p.Name, fused, unfused)
			}
		}
	}
}

// The fused inventory: 8 paper kernels collapse to qforce, getacc,
// dtreduce, lagupdate; OverallOf over it beats the unfused Overall on
// the CPU platforms (where the fusions are implemented).
func TestFusedKernelsInventoryAndOverall(t *testing.T) {
	ks := FusedKernels()
	var names []string
	for _, k := range ks {
		names = append(names, k.Name)
	}
	want := []string{"qforce", "getacc", "dtreduce", "lagupdate"}
	if len(names) != len(want) {
		t.Fatalf("fused inventory %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("fused inventory %v, want %v", names, want)
		}
	}
	w := Table2Workload()
	for _, p := range Platforms() {
		if p.CoreBW == 0 {
			continue // GPU ports in the paper are unfused
		}
		fused, unfused := p.OverallOf(ks, w), p.Overall(w)
		if fused >= unfused {
			t.Fatalf("%s: fused overall %v !< unfused %v", p.Name, fused, unfused)
		}
		if fused < 0.5*unfused {
			t.Fatalf("%s: fused overall %v implausibly below unfused %v", p.Name, fused, unfused)
		}
	}
}

// The merged descriptor inherits the most pessimistic execution-model
// corrections of its members and their (agreeing) call count.
func TestFusedKernelComposition(t *testing.T) {
	qf, dt := Fusions[0], Fusions[2]
	if qf.Name != "qforce" || dt.Name != "dtreduce" {
		t.Fatalf("Fusions[0], [2] are %s, %s; want qforce, dtreduce", qf.Name, dt.Name)
	}
	k := qf.fusedKernel()
	getq, _ := kernelByName("getq")
	getforce, _ := kernelByName("getforce")
	if k.CallsPerStep != getq.CallsPerStep {
		t.Fatalf("qforce calls %v, want %v", k.CallsPerStep, getq.CallsPerStep)
	}
	// Serial work is preserved absolutely: frac × fused ops equals the
	// members' summed serial ops.
	wantSerial := getq.SerialFrac*getq.Ops + getforce.SerialFrac*getforce.Ops
	if got := k.SerialFrac * k.Ops; math.Abs(got-wantSerial) > 1e-9 {
		t.Fatalf("qforce serial ops %v, want %v", got, wantSerial)
	}
	if k.GPUDerate != math.Max(getq.GPUDerate, getforce.GPUDerate) {
		t.Fatalf("qforce GPU derate %v", k.GPUDerate)
	}
	dk := dt.fusedKernel()
	if !dk.HostOnlyCUDA || dk.TransferBytes == 0 {
		t.Fatal("dtreduce lost the host-only CUDA path")
	}
}
