package ale

import (
	"reflect"
	"sort"
	"testing"

	"bookleaf/internal/eos"
	"bookleaf/internal/hydro"
	"bookleaf/internal/mesh"
	"bookleaf/internal/partition"
)

// nodeAdjacency is the original map-deduplicated [][]int adjacency
// builder, kept as the reference the CSR build is tested against.
func nodeAdjacency(m *mesh.Mesh) [][]int {
	adj := make([][]int, m.NNd)
	seen := make(map[[2]int]bool)
	for e := 0; e < m.NEl; e++ {
		appendEdges(m, e, adj, seen)
	}
	return adj
}

// globalOrderAdjacency is the pre-CSR-build buildAdjacency: the
// reference builder visiting elements in ascending global id, whose
// neighbour sequence the counting build must reproduce exactly.
func globalOrderAdjacency(m *mesh.Mesh) [][]int {
	if m.GlobalEl == nil {
		return nodeAdjacency(m)
	}
	adj := make([][]int, m.NNd)
	seen := make(map[[2]int]bool)
	order := make([]int, m.NEl)
	for e := range order {
		order[e] = e
	}
	sort.Slice(order, func(i, j int) bool {
		return m.GlobalEl[order[i]] < m.GlobalEl[order[j]]
	})
	for _, e := range order {
		appendEdges(m, e, adj, seen)
	}
	return adj
}

// appendEdges records element e's four edges into adj, deduplicating
// shared edges: each undirected edge is appended only when first seen,
// so neighbour order is a pure function of the element visit order.
func appendEdges(m *mesh.Mesh, e int, adj [][]int, seen map[[2]int]bool) {
	for k := 0; k < 4; k++ {
		a := int(m.ElNd[e][k])
		b := int(m.ElNd[e][(k+1)&3])
		key := [2]int{a, b}
		if a > b {
			key = [2]int{b, a}
		}
		if !seen[key] {
			seen[key] = true
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}
}

// adjFromCSR expands a CSR adjacency back to per-node slices so it can
// be compared against the reference [][]int builder.
func adjFromCSR(start, list []int, nnd int) [][]int {
	adj := make([][]int, nnd)
	for n := 0; n < nnd; n++ {
		adj[n] = append([]int(nil), list[start[n]:start[n+1]]...)
	}
	return adj
}

// TestCSRMatchesReferenceOnGlobalMesh pins the flattening itself: on an
// undecomposed mesh (GlobalEl nil) the CSR builder visits elements in
// the same natural order as the [][]int reference, so the round trip
// must be exact — same neighbours, same order.
func TestCSRMatchesReferenceOnGlobalMesh(t *testing.T) {
	m, err := mesh.Rect(mesh.RectSpec{NX: 9, NY: 7, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: mesh.DefaultWalls()})
	if err != nil {
		t.Fatal(err)
	}
	want := nodeAdjacency(m)
	start, list := buildAdjacency(m)
	got := adjFromCSR(start, list, m.NNd)
	for n := range want {
		w := want[n]
		if len(w) == 0 {
			w = nil
		}
		if !reflect.DeepEqual(got[n], w) {
			t.Fatalf("node %d: CSR %v != reference %v", n, got[n], want[n])
		}
	}
}

// TestCSRMatchesReferenceOnSubmeshes checks the CSR builder against the
// references on RCB- and METIS-style partitioned submeshes. The CSR
// build orders neighbours as an element visit by global index would, so
// against the local-order reference the per-node neighbour *sets* must
// agree while the order may differ, and against the global-order
// reference the sequences must be equal.
func TestCSRMatchesReferenceOnSubmeshes(t *testing.T) {
	m, err := mesh.Rect(mesh.RectSpec{NX: 12, NY: 10, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: mesh.DefaultWalls()})
	if err != nil {
		t.Fatal(err)
	}
	parts := map[string]func(*mesh.Mesh, int) ([]int, error){
		"rcb":   partition.RCBMesh,
		"metis": partition.MultilevelMesh,
	}
	for name, splitF := range parts {
		for _, nparts := range []int{2, 4} {
			part, err := splitF(m, nparts)
			if err != nil {
				t.Fatal(err)
			}
			subs, err := partition.Split(m, part, nparts)
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range subs {
				lm := sub.M
				want := nodeAdjacency(lm)
				start, list := buildAdjacency(lm)
				got := adjFromCSR(start, list, lm.NNd)
				for n, w := range globalOrderAdjacency(lm) {
					if len(w)+len(got[n]) > 0 && !reflect.DeepEqual(got[n], w) {
						t.Fatalf("%s/%d rank %d node %d: CSR %v != global-order reference %v",
							name, nparts, sub.Rank, n, got[n], w)
					}
				}
				for n := range want {
					ws := append([]int(nil), want[n]...)
					gs := append([]int(nil), got[n]...)
					sort.Ints(ws)
					sort.Ints(gs)
					if len(ws) == 0 && len(gs) == 0 {
						continue
					}
					if !reflect.DeepEqual(gs, ws) {
						t.Fatalf("%s/%d rank %d node %d: CSR set %v != reference set %v",
							name, nparts, sub.Rank, n, got[n], want[n])
					}
				}
			}
		}
	}
}

// TestCSRDeterministic is a regression guard on neighbour ordering: two
// builds of one mesh must agree, or the smoothing sum would not be
// deterministic.
func TestCSRDeterministic(t *testing.T) {
	m, err := mesh.Rect(mesh.RectSpec{NX: 12, NY: 10, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: mesh.DefaultWalls()})
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.RCBMesh(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := partition.Split(m, part, 4)
	if err != nil {
		t.Fatal(err)
	}
	meshes := []*mesh.Mesh{m}
	for _, sub := range subs {
		meshes = append(meshes, sub.M)
	}
	for i, lm := range meshes {
		s1, l1 := buildAdjacency(lm)
		s2, l2 := buildAdjacency(lm)
		if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(l1, l2) {
			t.Fatalf("mesh %d: two CSR builds differ", i)
		}
	}
}

// TestSmoothedTargetsRankIndependent pins the ghost-stencil fix at the
// kernel level: the smoothed target coordinates of every owned node on
// a partitioned submesh must be bitwise identical to the targets the
// undecomposed mesh computes, for any rank count. Before the fix, ghost
// and frontier nodes were smoothed with halo-truncated stencils.
func TestSmoothedTargetsRankIndependent(t *testing.T) {
	sG := testState(t, 10, 8,
		func(cx, cy float64) float64 { return 1 + 0.3*cx },
		func(cx, cy float64) float64 { return 1 + 0.2*cy })
	displaceInterior(sG, 0.02)
	opt := Options{Mode: Smoothed, SmoothWeight: 0.8}
	rG := NewRemapper(opt, sG)
	rG.s = sG
	rG.kb.smooth(0, sG.Mesh.NNd)

	g, _ := eos.NewIdealGas(1.4)
	for _, nparts := range []int{2, 4} {
		part, err := partition.RCBMesh(sG.Mesh, nparts)
		if err != nil {
			t.Fatal(err)
		}
		subs, err := partition.Split(sG.Mesh, part, nparts)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			lm := sub.M
			rho := make([]float64, lm.NEl)
			ein := make([]float64, lm.NEl)
			for e := 0; e < lm.NEl; e++ {
				rho[e] = sG.Rho[lm.GlobalEl[e]]
				ein[e] = sG.Ein[lm.GlobalEl[e]]
			}
			sL, err := hydro.NewState(lm, hydro.DefaultOptions(g), rho, ein)
			if err != nil {
				t.Fatal(err)
			}
			// Hand the local state the displaced coordinates — ghosts
			// included, as a fresh halo exchange would.
			for n := 0; n < lm.NNd; n++ {
				sL.X[n] = sG.X[lm.GlobalNd[n]]
				sL.Y[n] = sG.Y[lm.GlobalNd[n]]
			}
			rL := NewRemapper(opt, sL)
			rL.s = sL
			rL.kb.smooth(0, lm.NOwnNd)
			for n := 0; n < lm.NOwnNd; n++ {
				gn := lm.GlobalNd[n]
				if rL.xT[n] != rG.xT[gn] || rL.yT[n] != rG.yT[gn] {
					t.Fatalf("ranks=%d rank=%d: owned node %d (global %d) target (%v,%v) != global (%v,%v)",
						nparts, sub.Rank, n, gn, rL.xT[n], rL.yT[n], rG.xT[gn], rG.yT[gn])
				}
			}
		}
	}
}

// TestSmoothedHooklessLocalMeshPinsGhosts: with no exchange to bring
// the non-owned targets from their owners, Apply on a partitioned mesh
// leaves its ghost nodes where they are instead of smoothing them with
// halo-truncated stencils.
func TestSmoothedHooklessLocalMeshPinsGhosts(t *testing.T) {
	sG := testState(t, 10, 8,
		func(cx, cy float64) float64 { return 1 + 0.3*cx },
		func(cx, cy float64) float64 { return 1 + 0.2*cy })
	displaceInterior(sG, 0.02)
	part, err := partition.RCBMesh(sG.Mesh, 2)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := partition.Split(sG.Mesh, part, 2)
	if err != nil {
		t.Fatal(err)
	}
	lm := subs[0].M
	s := localState(t, sG, lm)
	x0 := append([]float64(nil), s.X...)
	y0 := append([]float64(nil), s.Y...)
	if err := NewRemapper(Options{Mode: Smoothed, SmoothWeight: 0.8}, s).Apply(s, nil, nil); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for n := 0; n < lm.NNd; n++ {
		if s.X[n] == x0[n] && s.Y[n] == y0[n] {
			continue
		}
		if n >= lm.NOwnNd {
			t.Fatalf("ghost node %d moved to (%v,%v) from (%v,%v)", n, s.X[n], s.Y[n], x0[n], y0[n])
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("no owned node moved: the smoothing did not run")
	}
}
