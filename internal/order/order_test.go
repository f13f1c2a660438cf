package order

import (
	"reflect"
	"testing"

	"bookleaf/internal/mesh"
)

func rect(t *testing.T, nx, ny int) *mesh.Mesh {
	t.Helper()
	m, err := mesh.Rect(mesh.RectSpec{
		NX: nx, NY: ny, X0: 0, X1: 1, Y0: 0, Y1: 0.1,
		Walls: mesh.DefaultWalls(),
		RegionOf: func(cx, cy float64) int {
			if cx > 0.5 {
				return 1
			}
			return 0
		},
	})
	if err != nil {
		t.Fatalf("Rect: %v", err)
	}
	return m
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", None, false}, {"none", None, false},
		{"hilbert", Hilbert, false}, {"rcm", RCM, false},
		{"zorder", None, true},
	} {
		got, err := Parse(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("Parse(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}

// TestPermRoundTrip: for every kind, perm ∘ inverse = identity on both
// the element and node maps, and both maps are total permutations.
func TestPermRoundTrip(t *testing.T) {
	m := rect(t, 31, 7)
	for _, k := range []Kind{None, Hilbert, RCM} {
		p, err := compute(m, k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if len(p.El) != m.NEl || len(p.Nd) != m.NNd {
			t.Fatalf("%v: perm sized %d/%d, want %d/%d", k, len(p.El), len(p.Nd), m.NEl, m.NNd)
		}
		for ne, oe := range p.El {
			if p.ElInv[oe] != ne {
				t.Fatalf("%v: ElInv[El[%d]] = %d", k, ne, p.ElInv[oe])
			}
		}
		for nn, on := range p.Nd {
			if p.NdInv[on] != nn {
				t.Fatalf("%v: NdInv[Nd[%d]] = %d", k, nn, p.NdInv[on])
			}
		}
		seen := make([]bool, m.NEl)
		for _, oe := range p.El {
			if seen[oe] {
				t.Fatalf("%v: element %d appears twice", k, oe)
			}
			seen[oe] = true
		}
	}
}

// TestApplyCarriesFields: the reordered mesh passes mesh.Check, and
// every per-entity field lands where GlobalEl/GlobalNd says it should.
func TestApplyCarriesFields(t *testing.T) {
	m := rect(t, 24, 5)
	for _, k := range []Kind{Hilbert, RCM} {
		p, err := compute(m, k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		r, err := apply(m, p)
		if err != nil {
			t.Fatalf("%v: apply: %v", k, err)
		}
		if r.NEl != m.NEl || r.NNd != m.NNd {
			t.Fatalf("%v: sizes changed", k)
		}
		for ne := 0; ne < r.NEl; ne++ {
			oe := r.GlobalEl[ne]
			if r.Region[ne] != m.Region[oe] {
				t.Fatalf("%v: element %d region %d, canonical %d has %d", k, ne, r.Region[ne], oe, m.Region[oe])
			}
			// Connectivity maps back: corner nodes name the same
			// canonical nodes in the same cyclic positions.
			for c := 0; c < 4; c++ {
				if r.GlobalNd[r.ElNd[ne][c]] != m.ElNd[oe][c] {
					t.Fatalf("%v: element %d corner %d maps to canonical node %d, want %d",
						k, ne, c, r.GlobalNd[r.ElNd[ne][c]], m.ElNd[oe][c])
				}
			}
		}
		for nn := 0; nn < r.NNd; nn++ {
			on := r.GlobalNd[nn]
			if r.X[nn] != m.X[on] || r.Y[nn] != m.Y[on] || r.BCs[nn] != m.BCs[on] {
				t.Fatalf("%v: node %d fields differ from canonical node %d", k, nn, on)
			}
		}
	}
}

func TestComputeDeterministic(t *testing.T) {
	m := rect(t, 20, 6)
	for _, k := range []Kind{Hilbert, RCM} {
		a, _ := compute(m, k)
		b, _ := compute(m, k)
		for i := range a.El {
			if a.El[i] != b.El[i] {
				t.Fatalf("%v: element order differs between runs at %d", k, i)
			}
		}
	}
}

// dualBandwidth is the maximum |i - j| over dual-graph edges — the
// quantity RCM exists to shrink.
func dualBandwidth(m *mesh.Mesh) int {
	bw := 0
	for e := 0; e < m.NEl; e++ {
		for k := 0; k < 4; k++ {
			if nb := int(m.ElEl[e][k]); nb >= 0 {
				if d := e - nb; d > bw {
					bw = d
				} else if -d > bw {
					bw = -d
				}
			}
		}
	}
	return bw
}

// TestRCMShrinksBandwidth: on a wide row-major mesh (bandwidth = NX)
// RCM must bring the dual bandwidth down near the short dimension.
func TestRCMShrinksBandwidth(t *testing.T) {
	m := rect(t, 64, 4)
	before := dualBandwidth(m)
	r, err := Reorder(m, RCM)
	if err != nil {
		t.Fatal(err)
	}
	after := dualBandwidth(r)
	if after >= before/4 {
		t.Fatalf("RCM bandwidth %d, want far below row-major %d", after, before)
	}
}

// TestHilbertShrinksReuseWindow: walking elements in order, a node
// access "hits" when the node was last touched within the previous W
// elements (a streaming-cache surrogate). Row-major on a square mesh
// misses on every row-to-row revisit once W < NX; Hilbert keeps
// revisits inside small tiles and must miss far less.
func TestHilbertShrinksReuseWindow(t *testing.T) {
	sq, err := mesh.Rect(mesh.RectSpec{NX: 64, NY: 64, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: mesh.DefaultWalls()})
	if err != nil {
		t.Fatal(err)
	}
	// Small enough that row-major row revisits (distance NX) always
	// miss, large enough that Hilbert tiles (~sqrt(window) square) fit.
	const window = 48
	// Count re-touch misses only: a node's first touch is compulsory
	// under any ordering, so it says nothing about the ordering.
	misses := func(m *mesh.Mesh) (n int) {
		last := make([]int, m.NNd)
		for i := range last {
			last[i] = -1
		}
		for e := 0; e < m.NEl; e++ {
			for k := 0; k < 4; k++ {
				nd := m.ElNd[e][k]
				if last[nd] >= 0 && e-last[nd] > window {
					n++
				}
				last[nd] = e
			}
		}
		return n
	}
	before := misses(sq)
	r, err := Reorder(sq, Hilbert)
	if err != nil {
		t.Fatal(err)
	}
	after := misses(r)
	if after >= before/2 {
		t.Fatalf("Hilbert reuse-window misses %d, want well below row-major %d", after, before)
	}
}

// TestApplyRefusesPartitioned: reordering is a setup-time transform.
func TestApplyRefusesPartitioned(t *testing.T) {
	m := rect(t, 8, 4)
	m.NOwnEl = m.NEl - 2
	p, _ := compute(m, RCM)
	if _, err := apply(m, p); err == nil {
		t.Fatal("apply accepted a partitioned mesh")
	}
}

// TestReorderLeavesInputIntact: a reordering builds a new mesh and
// writes nothing of its input, so a caller may reorder one canonical
// mesh several ways (the benchmark harness runs RCM on the mesh it
// reordered by Hilbert first).
func TestReorderLeavesInputIntact(t *testing.T) {
	m := rect(t, 24, 5)
	want := m.Clone()
	for _, k := range []Kind{Hilbert, RCM} {
		if _, err := Reorder(m, k); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("%v: Reorder modified its input mesh", k)
		}
	}
}

// TestReorderNoneIsIdentity: None hands back the same mesh object with
// no GlobalEl map — the bitwise-seed guarantee.
func TestReorderNoneIsIdentity(t *testing.T) {
	m := rect(t, 8, 4)
	r, err := Reorder(m, None)
	if err != nil {
		t.Fatal(err)
	}
	if r != m || r.GlobalEl != nil {
		t.Fatal("Reorder(None) must return the mesh untouched")
	}
}
