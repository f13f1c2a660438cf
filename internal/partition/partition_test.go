package partition

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"bookleaf/internal/mesh"
)

func rectMesh(t testing.TB, nx, ny int) *mesh.Mesh {
	t.Helper()
	m, err := mesh.Rect(mesh.RectSpec{NX: nx, NY: ny, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: mesh.DefaultWalls()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func checkPartition(t *testing.T, part []int, n, nparts int) {
	t.Helper()
	if len(part) != n {
		t.Fatalf("part length %d, want %d", len(part), n)
	}
	counts := make([]int, nparts)
	for _, p := range part {
		if p < 0 || p >= nparts {
			t.Fatalf("invalid part id %d", p)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c == 0 {
			t.Fatalf("part %d empty", p)
		}
	}
}

func TestRCBBalance(t *testing.T) {
	m := rectMesh(t, 16, 16)
	for _, nparts := range []int{1, 2, 3, 4, 7, 8, 16} {
		part, err := RCBMesh(m, nparts)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, part, m.NEl, nparts)
		if imb := Imbalance(part, nil, nparts); imb > 1.1 {
			t.Fatalf("nparts=%d RCB imbalance %v > 1.1", nparts, imb)
		}
	}
}

func TestRCBContiguousHalves(t *testing.T) {
	// For a 2-part split of a square mesh, RCB must separate space into
	// two half-planes: no element of part 0 lies right of part 1's
	// leftmost... simply check the cut is a straight coordinate split.
	m := rectMesh(t, 8, 8)
	part, err := RCBMesh(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	var max0, min1 = -math.MaxFloat64, math.MaxFloat64
	var x, y [4]float64
	for e := 0; e < m.NEl; e++ {
		m.GatherCoords(e, &x, &y)
		cx := 0.25 * (x[0] + x[1] + x[2] + x[3])
		if part[e] == 0 && cx > max0 {
			max0 = cx
		}
		if part[e] == 1 && cx < min1 {
			min1 = cx
		}
	}
	if max0 >= min1 {
		t.Fatalf("RCB 2-way split not spatially separated: max0=%v min1=%v", max0, min1)
	}
}

func TestRCBErrors(t *testing.T) {
	if _, err := RCB([]float64{1, 2}, []float64{1}, 2); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := RCB([]float64{1}, []float64{1}, 0); err == nil {
		t.Fatal("nparts=0 accepted")
	}
	if _, err := RCB([]float64{1}, []float64{1}, 5); err == nil {
		t.Fatal("nparts > n accepted")
	}
}

func TestMultilevelBalanceAndCut(t *testing.T) {
	m := rectMesh(t, 20, 20)
	g := DualGraph(m)
	for _, nparts := range []int{2, 3, 4, 8} {
		part, err := Multilevel(g, nparts)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, part, m.NEl, nparts)
		if imb := Imbalance(part, nil, nparts); imb > 1.25 {
			t.Fatalf("nparts=%d multilevel imbalance %v > 1.25", nparts, imb)
		}
		// Edge cut must be far below total edges (random assignment
		// would cut ~ (1-1/k) of 2*20*19=760 edges).
		cut := g.EdgeCut(part)
		if cut > 300 {
			t.Fatalf("nparts=%d edge cut %d unreasonably high", nparts, cut)
		}
	}
}

func TestMultilevelBeatsOrMatchesStripesOnSquare(t *testing.T) {
	// A sane 4-way partition of a 16x16 grid has edge cut well under
	// the 3*16=48 of naive 4-striping... allow some slack but catch
	// regressions to absurd cuts.
	m := rectMesh(t, 16, 16)
	g := DualGraph(m)
	part, err := Multilevel(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cut := g.EdgeCut(part); cut > 80 {
		t.Fatalf("4-way cut = %d, want <= 80", cut)
	}
}

func TestDualGraphStructure(t *testing.T) {
	m := rectMesh(t, 3, 3)
	g := DualGraph(m)
	if g.NVerts != 9 {
		t.Fatalf("nverts = %d, want 9", g.NVerts)
	}
	// Corner element has 2 neighbours, edge 3, centre 4.
	deg := func(v int) int { return g.XAdj[v+1] - g.XAdj[v] }
	if deg(0) != 2 {
		t.Fatalf("corner degree = %d, want 2", deg(0))
	}
	if deg(4) != 4 {
		t.Fatalf("centre degree = %d, want 4", deg(4))
	}
	// Symmetry.
	for v := 0; v < g.NVerts; v++ {
		for i := g.XAdj[v]; i < g.XAdj[v+1]; i++ {
			u := g.Adj[i]
			found := false
			for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
				if g.Adj[j] == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("dual graph asymmetric: %d->%d", v, u)
			}
		}
	}
}

func TestEdgeCutZeroForSinglePart(t *testing.T) {
	m := rectMesh(t, 5, 5)
	g := DualGraph(m)
	part := make([]int, m.NEl)
	if cut := g.EdgeCut(part); cut != 0 {
		t.Fatalf("single-part cut = %d, want 0", cut)
	}
}

func TestImbalancePerfect(t *testing.T) {
	part := []int{0, 0, 1, 1}
	if imb := Imbalance(part, nil, 2); imb != 1 {
		t.Fatalf("imbalance = %v, want 1", imb)
	}
}

// TestSplitCoversAndGhosts: owned elements and owned nodes each cover
// the global mesh exactly once. A node's owner is the lowest part among
// its elements, so on Saltzmann 3x1 split [1 2 0] the middle element's
// part owns elements and no node; its sub-mesh must say so (NOwnNd 0),
// not claim every local node.
func TestSplitCoversAndGhosts(t *testing.T) {
	square := rectMesh(t, 8, 8)
	rcb, err := RCBMesh(square, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		m        *mesh.Mesh
		part     []int
		noNodeAt int // the part that owns no node, or -1
	}{
		{"rcb-8x8/4", square, rcb, -1},
		{"3x1/[1 2 0]", rectMesh(t, 3, 1), []int{1, 2, 0}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nparts := slices.Max(tc.part) + 1
			subs, err := Split(tc.m, tc.part, nparts)
			if err != nil {
				t.Fatal(err)
			}
			seen := make([]int, tc.m.NEl)
			seenN := make([]int, tc.m.NNd)
			for _, sm := range subs {
				for i := 0; i < sm.M.NOwnEl; i++ {
					seen[sm.M.GlobalEl[i]]++
				}
				for i := 0; i < sm.M.NOwnNd; i++ {
					seenN[sm.M.GlobalNd[i]]++
				}
				if err := sm.M.Check(); err != nil {
					t.Fatalf("rank %d local mesh invalid: %v", sm.Rank, err)
				}
			}
			for e, c := range seen {
				if c != 1 {
					t.Fatalf("element %d owned %d times", e, c)
				}
			}
			for n, c := range seenN {
				if c != 1 {
					t.Fatalf("node %d owned %d times", n, c)
				}
			}
			if tc.noNodeAt >= 0 {
				if sm := subs[tc.noNodeAt].M; sm.NOwnEl == 0 || sm.NOwnNd != 0 {
					t.Fatalf("part %d owns %d elements and %d nodes, want some and 0", tc.noNodeAt, sm.NOwnEl, sm.NOwnNd)
				}
			}
		})
	}
}

func TestSplitGhostRuleComplete(t *testing.T) {
	// Every element adjacent (via a node) to an owned element must be
	// local, so nodal sums on owned nodes are complete.
	m := rectMesh(t, 6, 6)
	part, _ := RCBMesh(m, 3)
	subs, err := Split(m, part, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range subs {
		local := make(map[int32]bool)
		for _, ge := range sm.M.GlobalEl {
			local[ge] = true
		}
		for i := 0; i < sm.M.NOwnNd; i++ {
			gn := sm.M.GlobalNd[i]
			for _, c := range m.CornersAround(int(gn)) {
				if ge := c >> 2; !local[ge] {
					t.Fatalf("rank %d owned node %d missing adjacent element %d", sm.Rank, gn, ge)
				}
			}
		}
	}
}

func TestSplitExchangeListsMirror(t *testing.T) {
	m := rectMesh(t, 8, 4)
	part, _ := RCBMesh(m, 4)
	subs, err := Split(m, part, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r, sm := range subs {
		for src, recv := range sm.ElRecv {
			send := subs[src].ElSend[r]
			if len(send) != len(recv) {
				t.Fatalf("el lists mismatched: rank %d<-%d recv %d send %d", r, src, len(recv), len(send))
			}
			for i := range recv {
				if subs[src].M.GlobalEl[send[i]] != sm.M.GlobalEl[recv[i]] {
					t.Fatalf("el exchange order mismatch rank %d<-%d pos %d", r, src, i)
				}
			}
		}
		for src, recv := range sm.NdRecv {
			send := subs[src].NdSend[r]
			if len(send) != len(recv) {
				t.Fatalf("nd lists mismatched: rank %d<-%d", r, src)
			}
			for i := range recv {
				if subs[src].M.GlobalNd[send[i]] != sm.M.GlobalNd[recv[i]] {
					t.Fatalf("nd exchange order mismatch rank %d<-%d pos %d", r, src, i)
				}
			}
		}
	}
}

func TestSplitRejectsBadPart(t *testing.T) {
	m := rectMesh(t, 4, 4)
	part := make([]int, m.NEl)
	if _, err := Split(m, part[:3], 1); err == nil {
		t.Fatal("short part vector accepted")
	}
	part[0] = 5
	if _, err := Split(m, part, 2); err == nil {
		t.Fatal("invalid part id accepted")
	}
	part[0] = 0
	if _, err := Split(m, part, 2); err == nil {
		t.Fatal("empty part accepted")
	}
}

func TestSplitSinglePartIsWholeMesh(t *testing.T) {
	m := rectMesh(t, 5, 3)
	part := make([]int, m.NEl)
	subs, err := Split(m, part, 1)
	if err != nil {
		t.Fatal(err)
	}
	sm := subs[0]
	if sm.M.NEl != m.NEl || sm.M.NNd != m.NNd || sm.M.NOwnEl != m.NEl {
		t.Fatalf("single part mesh sizes wrong: %d/%d els, %d/%d nodes", sm.M.NEl, m.NEl, sm.M.NNd, m.NNd)
	}
	if len(sm.Neighbours) != 0 {
		t.Fatalf("single part has neighbours %v", sm.Neighbours)
	}
}

func TestPartitionersProperty(t *testing.T) {
	f := func(nxr, nyr, npr uint8) bool {
		nx := int(nxr%10) + 2
		ny := int(nyr%10) + 2
		nparts := int(npr%4) + 1
		if nparts > nx*ny {
			nparts = 1
		}
		m, err := mesh.Rect(mesh.RectSpec{NX: nx, NY: ny, X0: 0, X1: 1, Y0: 0, Y1: 1, Walls: mesh.DefaultWalls()})
		if err != nil {
			return false
		}
		for _, mk := range []func() ([]int, error){
			func() ([]int, error) { return RCBMesh(m, nparts) },
			func() ([]int, error) { return MultilevelMesh(m, nparts) },
		} {
			part, err := mk()
			if err != nil {
				return false
			}
			counts := make([]int, nparts)
			for _, p := range part {
				if p < 0 || p >= nparts {
					return false
				}
				counts[p]++
			}
			for _, c := range counts {
				if c == 0 {
					return false
				}
			}
			if _, err := Split(m, part, nparts); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
