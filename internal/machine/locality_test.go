package machine

import (
	"math"
	"testing"
)

// gridElNd builds the row-major element→node map of a w×h quad grid —
// the numbering the generators emit and the Kernels table's Bytes are
// calibrated against.
func gridElNd(w, h int) ([][4]int32, int) {
	elnd := make([][4]int32, w*h)
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			n0 := int32(j*(w+1) + i)
			elnd[j*w+i] = [4]int32{n0, n0 + 1, n0 + int32(w) + 2, n0 + int32(w) + 1}
		}
	}
	return elnd, (w + 1) * (h + 1)
}

// blockedElNd permutes the grid sweep into b×b tiles and renumbers the
// nodes by first touch — a cheap stand-in for the order package's
// space-filling-curve + first-touch renumbering, with the same locality
// character.
func blockedElNd(w, h, b int) ([][4]int32, int) {
	row, nnd := gridElNd(w, h)
	var out [][4]int32
	for bj := 0; bj < h; bj += b {
		for bi := 0; bi < w; bi += b {
			for j := bj; j < bj+b && j < h; j++ {
				for i := bi; i < bi+b && i < w; i++ {
					out = append(out, row[j*w+i])
				}
			}
		}
	}
	relabel := make([]int32, nnd)
	for i := range relabel {
		relabel[i] = -1
	}
	next := int32(0)
	for e := range out {
		for k := 0; k < 4; k++ {
			if relabel[out[e][k]] < 0 {
				relabel[out[e][k]] = next
				next++
			}
			out[e][k] = relabel[out[e][k]]
		}
	}
	return out, nnd
}

// TestMeshReuseRowMajorVsBlocked: on a mesh much wider than the reuse
// window, the row-major sweep misses on every row-to-row re-touch while
// a blocked sweep keeps each tile's nodes resident — the effect the
// renumbering exists to produce, visible to the proxy.
func TestMeshReuseRowMajorVsBlocked(t *testing.T) {
	const w, h, win = 256, 64, 48
	row, nnd := gridElNd(w, h)
	blk, _ := blockedElNd(w, h, 8)
	lr := MeshReuse(row, nnd, win)
	lb := MeshReuse(blk, nnd, win)
	if lr.MissRate <= lb.MissRate {
		t.Fatalf("row-major miss rate %.4f not above blocked %.4f", lr.MissRate, lb.MissRate)
	}
	if lr.Span <= lb.Span {
		t.Fatalf("row-major span %.1f not above blocked %.1f", lr.Span, lb.Span)
	}
	// Row-major at window 48 on width 256: every row-to-row reuse (two
	// of the four touches, minus boundaries) misses.
	if lr.MissRate < 0.4 {
		t.Fatalf("row-major miss rate %.4f implausibly low", lr.MissRate)
	}
}

func TestMeshReuseDegenerate(t *testing.T) {
	l := MeshReuse(nil, 0, 0)
	if l.MissRate != 0 || l.Span != 0 || l.Window != DefaultReuseWindow {
		t.Fatalf("empty sweep: %+v", l)
	}
}

// TestGatherBytesWithinBytes: the locality-sensitive share is a share —
// never more than the kernel's total traffic — and the corner-gather
// kernels all declare one.
func TestGatherBytesWithinBytes(t *testing.T) {
	gatherKernels := map[string]bool{
		"getq": true, "getacc": true, "getdt": true,
		"getgeom": true, "getforce": true, "getein": true,
	}
	for _, ks := range [][]Kernel{Kernels, FusedKernels()} {
		for _, k := range ks {
			if k.GatherBytes < 0 || k.GatherBytes > k.Bytes {
				t.Errorf("%s: GatherBytes %.0f outside [0, %.0f]", k.Name, k.GatherBytes, k.Bytes)
			}
		}
	}
	for _, k := range Kernels {
		if gatherKernels[k.Name] && k.GatherBytes == 0 {
			t.Errorf("%s: corner-gather kernel with no GatherBytes", k.Name)
		}
		if !gatherKernels[k.Name] && k.GatherBytes != 0 {
			t.Errorf("%s: element-local kernel with GatherBytes %.0f", k.Name, k.GatherBytes)
		}
	}
}

// TestEffectiveBytesIdentity: derate 1 must reproduce the calibrated
// table exactly — the locality correction is strictly relative.
func TestEffectiveBytesIdentity(t *testing.T) {
	for _, k := range Kernels {
		if got := k.effectiveBytes(1); got != k.Bytes {
			t.Errorf("%s: effectiveBytes(1) = %g, want %g", k.Name, got, k.Bytes)
		}
		if got := k.effectiveBytes(0.5); got > k.Bytes {
			t.Errorf("%s: derate 0.5 increased bytes to %g", k.Name, got)
		}
	}
}

func TestGatherDerateClamps(t *testing.T) {
	base := Locality{MissRate: 0.4}
	if d := GatherDerate(Locality{MissRate: 0.4}, base); d != 1 {
		t.Fatalf("same profile derate %g, want 1", d)
	}
	if d := GatherDerate(Locality{MissRate: 1e-9}, base); d != 0.125 {
		t.Fatalf("floor clamp %g, want 0.125", d)
	}
	if d := GatherDerate(Locality{MissRate: 1e9}, base); d != 8 {
		t.Fatalf("ceiling clamp %g, want 8", d)
	}
	if d := GatherDerate(Locality{MissRate: 0.2}, Locality{}); d != 1 {
		t.Fatalf("zero baseline derate %g, want 1", d)
	}
	if d := GatherDerate(Locality{MissRate: math.NaN()}, base); d != 1 {
		t.Fatalf("NaN profile derate %g, want 1", d)
	}
}

// TestPredictReorderGain: a measured locality improvement must predict
// a speedup, a matching profile must predict none, and the gain must
// stay under the all-gathers-free bound.
func TestPredictReorderGain(t *testing.T) {
	const w, h = 256, 64
	row, nnd := gridElNd(w, h)
	blk, _ := blockedElNd(w, h, 8)
	base := MeshReuse(row, nnd, 48)
	reord := MeshReuse(blk, nnd, 48)

	// The serving host is compute-bound for every kernel, so locality
	// cannot move it; predict on the bandwidth-bound testbed rows
	// (Skylake flat MPI), where getacc/getdt/getrho sit on the memory
	// roof.
	host := Platforms()[0]
	gain := PredictReorderGain(&host, Kernels, w*h, base, reord)
	if gain <= 1 {
		t.Fatalf("better locality predicted gain %g <= 1", gain)
	}
	// Bound: dropping every gather byte entirely.
	var full, stream float64
	for _, k := range Kernels {
		full += k.CallsPerStep * k.Bytes
		stream += k.CallsPerStep * (k.Bytes - k.GatherBytes)
	}
	if gain > full/stream {
		t.Fatalf("gain %g above the zero-gather bound %g", gain, full/stream)
	}
	if same := PredictReorderGain(&host, Kernels, w*h, base, base); same != 1 {
		t.Fatalf("identical profiles predicted gain %g, want 1", same)
	}
	// The fused inventory sees the same direction of effect.
	if g := PredictReorderGain(&host, FusedKernels(), w*h, base, reord); g <= 1 {
		t.Fatalf("fused inventory predicted gain %g <= 1", g)
	}
}
