package mesh_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"bookleaf/internal/mesh"
	"bookleaf/internal/order"
	"bookleaf/internal/partition"
)

// refConnectivity is the edge-map derivation of ElEl and Faces that
// BuildConnectivity used before it matched edges through the
// node→corner CSR, kept verbatim as the reference BuildConnectivity and
// BuildFaces must reproduce: ElEl, and the interior faces in order.
// (Its boundary faces come out in map-iteration order, so those compare
// as a set.)
func refConnectivity(m *mesh.Mesh) (elEl [][4]int32, faces []mesh.Face) {
	type edgeKey struct{ a, b int32 }
	type edgeVal struct{ el, side int32 }
	edges := make(map[edgeKey]edgeVal, 2*m.NEl)
	elEl = make([][4]int32, m.NEl)
	for e := range m.ElNd {
		for k := 0; k < 4; k++ {
			elEl[e][k] = -1
		}
	}
	for e := range m.ElNd {
		for k := 0; k < 4; k++ {
			n1 := m.ElNd[e][k]
			n2 := m.ElNd[e][(k+1)&3]
			key := edgeKey{n1, n2}
			if key.a > key.b {
				key.a, key.b = key.b, key.a
			}
			if prev, ok := edges[key]; ok {
				elEl[e][k] = prev.el
				elEl[prev.el][prev.side] = int32(e)
				faces = append(faces, mesh.Face{N1: m.ElNd[prev.el][prev.side], N2: m.ElNd[prev.el][(prev.side+1)&3], Left: prev.el, Right: int32(e)})
				delete(edges, key)
			} else {
				edges[key] = edgeVal{int32(e), int32(k)}
			}
		}
	}
	// Remaining edges are boundary faces.
	for key, v := range edges {
		_ = key
		faces = append(faces, mesh.Face{N1: m.ElNd[v.el][v.side], N2: m.ElNd[v.el][(v.side+1)&3], Left: v.el, Right: -1})
	}
	return elEl, faces
}

type meshCase struct {
	name string
	m    *mesh.Mesh
}

// connectivityCases is the matrix the connectivity derivation is held
// to: generated meshes (small, degenerate-thin, the 32k benchmark
// mesh, the quarter disc, the Saltzmann skew), their Hilbert and RCM
// renumberings, and ghosted sub-meshes from both partitioners.
func connectivityCases(t *testing.T) []meshCase {
	t.Helper()
	rect := func(nx, ny int, d mesh.Distort) *mesh.Mesh {
		m, err := mesh.Rect(mesh.RectSpec{NX: nx, NY: ny, X0: 0, X1: 1, Y0: 0, Y1: 0.1, Distort: d, Walls: mesh.DefaultWalls()})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	disc, err := mesh.QuarterDisc(mesh.QuarterDiscSpec{N: 12, R: 1, AxisX: mesh.FixU, AxisY: mesh.FixV})
	if err != nil {
		t.Fatal(err)
	}
	square := rect(12, 11, nil)
	skew := rect(100, 10, mesh.NewSaltzmannDistort(0.1, 0.01))
	cases := []meshCase{
		{"rect1x1", rect(1, 1, nil)},
		{"rect1x5", rect(1, 5, nil)},
		{"rect6x2", rect(6, 2, nil)},
		{"rect12x11", square},
		{"rect1024x32", rect(1024, 32, nil)},
		{"disc12", disc},
		{"saltzmann", skew},
	}
	reordered := func(base meshCase, kind order.Kind) meshCase {
		rm, err := order.Reorder(base.m, kind)
		if err != nil {
			t.Fatal(err)
		}
		return meshCase{base.name + "/" + string(kind), rm}
	}
	for _, base := range []meshCase{{"rect12x11", square}, {"disc12", disc}, {"saltzmann", skew}} {
		cases = append(cases, reordered(base, order.Hilbert), reordered(base, order.RCM))
	}
	for _, g := range []meshCase{{"saltzmann", skew}, reordered(meshCase{"saltzmann", skew}, order.Hilbert)} {
		for _, ranks := range []int{2, 4, 7} {
			for _, pn := range []string{"rcb", "multilevel"} {
				partOf := partition.RCBMesh
				if pn == "multilevel" {
					partOf = partition.MultilevelMesh
				}
				part, err := partOf(g.m, ranks)
				if err != nil {
					t.Fatal(err)
				}
				subs, err := partition.Split(g.m, part, ranks)
				if err != nil {
					t.Fatal(err)
				}
				for _, sm := range subs {
					cases = append(cases, meshCase{fmt.Sprintf("%s/%s%d/rank%d", g.name, pn, ranks, sm.Rank), sm.M})
				}
			}
		}
	}
	return cases
}

// TestFaceListConsistency holds the face list of every case to its
// contract: each face is a counter-clockwise edge of its Left element;
// ElEl and the interior faces, in order, are those of the edge-map
// reference; the boundary faces are the reference's as a set and come
// in ascending (element, side); a second build of the same ElNd gives
// the same list; and no mesh has faces before BuildFaces, nor a second
// list after a second call.
func TestFaceListConsistency(t *testing.T) {
	sideOf := func(m *mesh.Mesh, f mesh.Face) int {
		for k := 0; k < 4; k++ {
			if m.ElNd[f.Left][k] == f.N1 && m.ElNd[f.Left][(k+1)&3] == f.N2 {
				return k
			}
		}
		return -1
	}
	faceLess := func(a, b mesh.Face) bool {
		if a.Left != b.Left {
			return a.Left < b.Left
		}
		return a.N1 < b.N1
	}
	for _, c := range connectivityCases(t) {
		m := c.m
		if m.Faces != nil {
			t.Fatalf("%s: %d faces before BuildFaces", c.name, len(m.Faces))
		}
		m.BuildFaces()
		first := &m.Faces[0]
		if m.BuildFaces(); &m.Faces[0] != first {
			t.Fatalf("%s: a second BuildFaces built a second list", c.name)
		}
		interior := 0
		for i, f := range m.Faces {
			if f.Left < 0 || int(f.Left) >= m.NEl {
				t.Fatalf("%s: face %d has bad left element %d", c.name, i, f.Left)
			}
			if sideOf(m, f) < 0 {
				t.Fatalf("%s: face (%d,%d) is not a CCW edge of element %d", c.name, f.N1, f.N2, f.Left)
			}
			if f.Right >= 0 {
				if interior != i {
					t.Fatalf("%s: interior face %d follows a boundary face", c.name, i)
				}
				interior++
			} else if i > interior {
				p := m.Faces[i-1]
				if p.Left > f.Left || (p.Left == f.Left && sideOf(m, p) >= sideOf(m, f)) {
					t.Fatalf("%s: boundary faces %d,%d not in ascending (element, side)", c.name, i-1, i)
				}
			}
		}
		if c.name == "rect6x2" {
			if b := len(m.Faces) - interior; b != 2*6+2*2 || interior != 6*1+5*2 {
				t.Fatalf("rect6x2: %d boundary, %d interior faces, want 16, 16", b, interior)
			}
		}

		refElEl, refFaces := refConnectivity(m)
		if !reflect.DeepEqual(m.ElEl, refElEl) {
			t.Fatalf("%s: ElEl differs from the edge-map reference", c.name)
		}
		if len(refFaces) != len(m.Faces) {
			t.Fatalf("%s: %d faces, reference has %d", c.name, len(m.Faces), len(refFaces))
		}
		if !reflect.DeepEqual(m.Faces[:interior], refFaces[:interior]) {
			t.Fatalf("%s: interior faces differ from the edge-map reference", c.name)
		}
		got := append([]mesh.Face(nil), m.Faces[interior:]...)
		want := refFaces[interior:]
		sort.Slice(got, func(i, j int) bool { return faceLess(got[i], got[j]) })
		sort.Slice(want, func(i, j int) bool { return faceLess(want[i], want[j]) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: boundary faces differ from the edge-map reference as a set", c.name)
		}

		again := &mesh.Mesh{ElNd: m.ElNd, X: m.X, Y: m.Y, NOwnEl: m.NOwnEl, NOwnNd: m.NOwnNd}
		again.BuildConnectivity()
		again.BuildFaces()
		if !reflect.DeepEqual(again.Faces, m.Faces) {
			t.Fatalf("%s: two builds of the same ElNd give different Faces", c.name)
		}
	}
}
