package mesh

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func mustRect(t testing.TB, nx, ny int) *Mesh {
	t.Helper()
	m, err := Rect(RectSpec{NX: nx, NY: ny, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: DefaultWalls()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRectCounts(t *testing.T) {
	m := mustRect(t, 4, 3)
	if m.NEl != 12 {
		t.Fatalf("NEl = %d, want 12", m.NEl)
	}
	if m.NNd != 20 {
		t.Fatalf("NNd = %d, want 20", m.NNd)
	}
	if m.Faces != nil {
		t.Fatalf("a generated mesh carries %d faces before anyone asked for them", len(m.Faces))
	}
	// horizontal edges: nx*(ny+1)=16, vertical edges: (nx+1)*ny=15.
	if m.BuildFaces(); len(m.Faces) != 31 {
		t.Fatalf("faces = %d, want 31", len(m.Faces))
	}
}

func TestRectTotalVolume(t *testing.T) {
	m := mustRect(t, 7, 5)
	if v := m.TotalVolume(); math.Abs(v-1) > 1e-12 {
		t.Fatalf("total volume = %v, want 1", v)
	}
}

func TestRectRejectsBadSpec(t *testing.T) {
	if _, err := Rect(RectSpec{NX: 0, NY: 1, X0: 0, X1: 1, Y0: 0, Y1: 1}); err == nil {
		t.Fatal("NX=0 accepted")
	}
	if _, err := Rect(RectSpec{NX: 2, NY: 2, X0: 1, X1: 0, Y0: 0, Y1: 1}); err == nil {
		t.Fatal("X1<X0 accepted")
	}
}

// TestGeneratorsRefuseOversizeMeshes: a mesh whose corner ids would not
// fit in int32 is a *TooLargeError from the generator, returned before
// it allocates anything (the error is the one allocation), including
// sizes whose element count overflows int.
func TestGeneratorsRefuseOversizeMeshes(t *testing.T) {
	const huge = 1 << 40
	cases := []struct {
		name string
		gen  func() (*Mesh, error)
	}{
		{"Rect 2^31 elements", func() (*Mesh, error) {
			return Rect(RectSpec{NX: 1 << 16, NY: 1 << 15, X0: 0, X1: 1, Y0: 0, Y1: 1})
		}},
		{"Rect one past the ceiling", func() (*Mesh, error) {
			return Rect(RectSpec{NX: MaxElements/2 + 1, NY: 2, X0: 0, X1: 1, Y0: 0, Y1: 1})
		}},
		{"Rect 2^40 x 2^40", func() (*Mesh, error) {
			return Rect(RectSpec{NX: huge, NY: huge, X0: 0, X1: 1, Y0: 0, Y1: 1})
		}},
		{"QuarterDisc 2^31 elements", func() (*Mesh, error) {
			return QuarterDisc(QuarterDiscSpec{N: 46341, R: 1}) // 46341² > 2^31
		}},
		{"QuarterDisc 2^40 x 2^40", func() (*Mesh, error) {
			return QuarterDisc(QuarterDiscSpec{N: huge, R: 1})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			if allocs := testing.AllocsPerRun(1, func() { _, err = c.gen() }); allocs > 1 {
				t.Errorf("%v allocations before refusing", allocs)
			}
			var tl *TooLargeError
			if !errors.As(err, &tl) {
				t.Fatalf("err = %v, want a *TooLargeError", err)
			}
		})
	}
}

func TestElementOrientationCCW(t *testing.T) {
	m := mustRect(t, 3, 3)
	for e := 0; e < m.NEl; e++ {
		if v := m.Volume(e); v <= 0 {
			t.Fatalf("element %d area %v not positive", e, v)
		}
	}
}

func TestAdjacencySymmetricAndInterior(t *testing.T) {
	m := mustRect(t, 5, 4)
	interior := 0
	for e := 0; e < m.NEl; e++ {
		for k := 0; k < 4; k++ {
			nb := m.ElEl[e][k]
			if nb < 0 {
				continue
			}
			interior++
			back := false
			for kk := 0; kk < 4; kk++ {
				if int(m.ElEl[nb][kk]) == e {
					back = true
				}
			}
			if !back {
				t.Fatalf("asymmetric adjacency %d->%d", e, nb)
			}
		}
	}
	// Interior adjacency entries = 2 * interior faces = 2*(nx*(ny-1)+(nx-1)*ny) = 2*(5*3+4*4)=62
	if interior != 62 {
		t.Fatalf("interior adjacency entries = %d, want 62", interior)
	}
}

func TestNodeElementCSR(t *testing.T) {
	m := mustRect(t, 4, 4)
	// Corner node 0 has 1 element, edge nodes 2, interior nodes 4.
	ring := m.CornersAround(0)
	if len(ring) != 1 || m.ElNd[ring[0]>>2][ring[0]&3] != 0 {
		t.Fatalf("corner node adjacency wrong: %v", ring)
	}
	// Interior node: pick node at (2,2) = 2*(4+1)+... node index j*(nx+1)+i = 2*5+2 = 12.
	if ring = m.CornersAround(12); len(ring) != 4 {
		t.Fatalf("interior node has %d elements, want 4", len(ring))
	}
}

// TestCheckRejectsCorruptCSR: Check validates the node→corner CSR
// before it indexes through it, so a corrupt start or slot comes back
// as an error from the function whose job that is, not as a panic.
func TestCheckRejectsCorruptCSR(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(m *Mesh)
	}{
		{"slot out of range", func(m *Mesh) { m.NdCorner[5] = int32(4 * m.NEl) }},
		{"negative slot", func(m *Mesh) { m.NdCorner[5] = -1 }},
		{"start past the end", func(m *Mesh) { m.NdElStart[3] = int32(len(m.NdCorner) + 7) }},
		{"start decreasing", func(m *Mesh) { m.NdElStart[3] = m.NdElStart[2] - 1 }},
		{"first start not zero", func(m *Mesh) { m.NdElStart[0] = 1 }},
		{"last start short of the slots", func(m *Mesh) { m.NdElStart[m.NNd]-- }},
		{"starts truncated", func(m *Mesh) { m.NdElStart = m.NdElStart[:m.NNd] }},
		{"duplicate slot", func(m *Mesh) { r := m.CornersAround(6); r[1] = r[0] }},
		{"slot of another node", func(m *Mesh) { r := m.CornersAround(6); r[0] = m.CornersAround(0)[0] }},
		{"ring not ascending", func(m *Mesh) { r := m.CornersAround(6); r[0], r[1] = r[1], r[0] }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := mustRect(t, 4, 3) // node 6 is interior: a ring of four
			c.corrupt(m)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Check panicked: %v", p)
				}
			}()
			if err := m.Check(); err == nil {
				t.Fatal("Check accepted the corrupt CSR")
			}
		})
	}
}

func TestBoundaryFlags(t *testing.T) {
	m := mustRect(t, 3, 3)
	// Node 0 is bottom-left corner: FixU|FixV.
	if m.BCs[0] != FixU|FixV {
		t.Fatalf("corner BC = %v, want FixU|FixV", m.BCs[0])
	}
	// Mid-bottom node 1: FixV only.
	if m.BCs[1] != FixV {
		t.Fatalf("bottom BC = %v, want FixV", m.BCs[1])
	}
	// An interior node: (1,1) -> 1*4+... nx+1=4, node = 1*4+1 = 5.
	if m.BCs[5] != BCNone {
		t.Fatalf("interior BC = %v, want none", m.BCs[5])
	}
}

func TestRegionAssignment(t *testing.T) {
	m, err := Rect(RectSpec{
		NX: 10, NY: 2, X0: 0, X1: 1, Y0: 0, Y1: 0.2,
		RegionOf: func(cx, cy float64) int {
			if cx < 0.5 {
				return 0
			}
			return 1
		},
		Walls: DefaultWalls(),
	})
	if err != nil {
		t.Fatal(err)
	}
	n0, n1 := 0, 0
	for _, r := range m.Region {
		switch r {
		case 0:
			n0++
		case 1:
			n1++
		default:
			t.Fatalf("unexpected region %d", r)
		}
	}
	if n0 != 10 || n1 != 10 {
		t.Fatalf("regions split %d/%d, want 10/10", n0, n1)
	}
}

func TestSaltzmannDistortKeepsValidMesh(t *testing.T) {
	m, err := Rect(RectSpec{
		NX: 100, NY: 10, X0: 0, X1: 1, Y0: 0, Y1: 0.1,
		Distort: NewSaltzmannDistort(0.1, 0.01),
		Walls:   DefaultWalls(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var x, y [4]float64
	for e := 0; e < m.NEl; e++ {
		if m.Volume(e) <= 0 {
			t.Fatalf("distorted element %d inverted", e)
		}
		m.GatherCoords(e, &x, &y)
		for k := 0; k < 4; k++ {
			if math.Hypot(x[(k+1)&3]-x[k], y[(k+1)&3]-y[k]) <= 0 {
				t.Fatalf("distorted element %d has a zero-length side %d", e, k)
			}
		}
	}
}

func TestCheckDetectsBadNodeIndex(t *testing.T) {
	m := mustRect(t, 2, 2)
	m.ElNd[0][0] = 999
	if err := m.Check(); err == nil {
		t.Fatal("Check accepted out-of-range node index")
	}
}

func TestCheckDetectsInvertedElement(t *testing.T) {
	m := mustRect(t, 2, 2)
	// Swap two nodes to invert element 0.
	m.ElNd[0][1], m.ElNd[0][3] = m.ElNd[0][3], m.ElNd[0][1]
	if err := m.Check(); err == nil {
		t.Fatal("Check accepted inverted element")
	}
}

func TestEulerCharacteristicProperty(t *testing.T) {
	f := func(nxr, nyr uint8) bool {
		nx := int(nxr%12) + 1
		ny := int(nyr%12) + 1
		m, err := Rect(RectSpec{NX: nx, NY: ny, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: DefaultWalls()})
		if err != nil {
			return false
		}
		return m.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVolumePartitionProperty(t *testing.T) {
	// Sum of element volumes equals domain area for arbitrary sizes.
	f := func(nxr, nyr uint8) bool {
		nx := int(nxr%10) + 1
		ny := int(nyr%10) + 1
		m, err := Rect(RectSpec{NX: nx, NY: ny, X0: -1, X1: 3, Y0: 2, Y1: 4, Walls: DefaultWalls()})
		if err != nil {
			return false
		}
		return math.Abs(m.TotalVolume()-8) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	m := mustRect(t, 3, 2)
	c := m.Clone()
	c.X[0] = 42
	c.ElNd[0][0] = 7
	if m.X[0] == 42 || m.ElNd[0][0] == 7 {
		t.Fatal("Clone shares storage with original")
	}
	if err := m.Check(); err != nil {
		t.Fatalf("original corrupted after clone mutation: %v", err)
	}
}

func TestGatherCoords(t *testing.T) {
	m := mustRect(t, 2, 2)
	var x, y [4]float64
	m.GatherCoords(0, &x, &y)
	if x[0] != 0 || y[0] != 0 || x[1] != 0.5 || y[2] != 0.5 {
		t.Fatalf("gathered coords wrong: %v %v", x, y)
	}
}

// TestNdCornerTransposeRoundTrip is the property test for the
// node→corner CSR transpose: scattering each corner slot 4*e+k to node
// ElNd[e][k] and gathering each node's NdCorner ring must visit exactly
// the same corner set, and each ring must ascend in (element, corner)
// order — the invariant that makes the gather-formulated acceleration
// bitwise-identical to the element-ordered scatter.
func TestNdCornerTransposeRoundTrip(t *testing.T) {
	prop := func(nxRaw, nyRaw uint8) bool {
		nx := int(nxRaw%12) + 1
		ny := int(nyRaw%12) + 1
		m := mustRect(t, nx, ny)
		if len(m.NdCorner) != 4*m.NEl {
			return false
		}
		// Gather side: every ring entry names a corner of an element
		// that really touches the node, ascending.
		seen := make([]bool, 4*m.NEl)
		for n := 0; n < m.NNd; n++ {
			prev := int32(-1)
			for _, ci := range m.NdCorner[m.NdElStart[n]:m.NdElStart[n+1]] {
				if ci <= prev { // ascending ⇒ also no duplicates
					return false
				}
				prev = ci
				e, k := ci/4, ci%4
				if int(m.ElNd[e][k]) != n {
					return false
				}
				seen[ci] = true
			}
		}
		// Scatter side: every corner slot was gathered by exactly one node.
		for ci, ok := range seen {
			if !ok {
				t.Logf("corner slot %d missing from every ring", ci)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildConnectivityAllocsFixed pins that connectivity derivation,
// the face list included, allocates a fixed number of arrays, nothing
// per element. (The count is a truncated mean over the runs, so a stray
// runtime allocation does not show.)
func TestBuildConnectivityAllocsFixed(t *testing.T) {
	allocs := func(n int) float64 {
		m := mustRect(t, n, n)
		return testing.AllocsPerRun(20, func() {
			m.BuildConnectivity()
			m.BuildFaces() // rebuilt: BuildConnectivity drops the old list
		})
	}
	small, large := allocs(32), allocs(256)
	if small != large {
		t.Fatalf("BuildConnectivity allocations grow with the mesh: %v at 32x32, %v at 256x256", small, large)
	}
}

func BenchmarkBuildConnectivity(b *testing.B) {
	m := mustRect(b, 1024, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BuildConnectivity()
	}
}

func BenchmarkCheck(b *testing.B) {
	m := mustRect(b, 1024, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Check(); err != nil {
			b.Fatal(err)
		}
	}
}
