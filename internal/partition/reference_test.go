package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"bookleaf/internal/mesh"
	"bookleaf/internal/order"
)

// refRCB and refSplit are the sort-based bisection and the map-based
// decomposition that RCB and Split replaced, kept verbatim as the
// references the selection and the flat-array versions must reproduce.
func refRCB(cx, cy []float64, nparts int) ([]int, error) {
	n := len(cx)
	if len(cy) != n {
		return nil, fmt.Errorf("partition: coordinate lengths differ: %d vs %d", n, len(cy))
	}
	if nparts < 1 {
		return nil, fmt.Errorf("partition: nparts = %d, want >= 1", nparts)
	}
	if nparts > n && n > 0 {
		return nil, fmt.Errorf("partition: nparts = %d exceeds element count %d", nparts, n)
	}
	part := make([]int, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	refRCBSplit(cx, cy, idx, 0, nparts, part)
	return part, nil
}

func refRCBSplit(cx, cy []float64, idx []int, base, k int, part []int) {
	if k == 1 {
		for _, i := range idx {
			part[i] = base
		}
		return
	}
	// Axis of larger spread.
	minX, maxX := cx[idx[0]], cx[idx[0]]
	minY, maxY := cy[idx[0]], cy[idx[0]]
	for _, i := range idx {
		if cx[i] < minX {
			minX = cx[i]
		}
		if cx[i] > maxX {
			maxX = cx[i]
		}
		if cy[i] < minY {
			minY = cy[i]
		}
		if cy[i] > maxY {
			maxY = cy[i]
		}
	}
	coord := cx
	if maxY-minY > maxX-minX {
		coord = cy
	}
	kl := k / 2
	kr := k - kl
	// Sort by the chosen coordinate (ties broken by index for
	// determinism) and split proportionally to kl:kr.
	sort.Slice(idx, func(a, b int) bool {
		if coord[idx[a]] != coord[idx[b]] {
			return coord[idx[a]] < coord[idx[b]]
		}
		return idx[a] < idx[b]
	})
	split := len(idx) * kl / k
	refRCBSplit(cx, cy, idx[:split], base, kl, part)
	refRCBSplit(cx, cy, idx[split:], base+kl, kr, part)
}

func refSplit(global *mesh.Mesh, part []int, nparts int) ([]*SubMesh, error) {
	if len(part) != global.NEl {
		return nil, fmt.Errorf("partition: part length %d != NEl %d", len(part), global.NEl)
	}
	counts := make([]int, nparts)
	for e, p := range part {
		if p < 0 || p >= nparts {
			return nil, fmt.Errorf("partition: element %d assigned to invalid part %d", e, p)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c == 0 {
			return nil, fmt.Errorf("partition: part %d is empty", p)
		}
	}

	// Node owner = min part over adjacent elements.
	ndOwner := make([]int, global.NNd)
	for n := range ndOwner {
		ndOwner[n] = nparts
	}
	for e := 0; e < global.NEl; e++ {
		for k := 0; k < 4; k++ {
			n := global.ElNd[e][k]
			if part[e] < ndOwner[n] {
				ndOwner[n] = part[e]
			}
		}
	}

	subs := make([]*SubMesh, nparts)
	// Global element -> local index per rank, for wiring send lists.
	elLocal := make([]map[int]int, nparts)
	ndLocal := make([]map[int]int, nparts)

	for r := 0; r < nparts; r++ {
		// Owned elements in global order.
		var owned []int
		for e := 0; e < global.NEl; e++ {
			if part[e] == r {
				owned = append(owned, e)
			}
		}
		// Ghost elements: share a node with an owned element.
		ghostSet := make(map[int]bool)
		for _, e := range owned {
			for k := 0; k < 4; k++ {
				n := int(global.ElNd[e][k])
				for _, c := range global.CornersAround(n) {
					if nb := int(c >> 2); part[nb] != r {
						ghostSet[nb] = true
					}
				}
			}
		}
		ghosts := make([]int, 0, len(ghostSet))
		for e := range ghostSet {
			ghosts = append(ghosts, e)
		}
		sort.Slice(ghosts, func(a, b int) bool {
			if part[ghosts[a]] != part[ghosts[b]] {
				return part[ghosts[a]] < part[ghosts[b]]
			}
			return ghosts[a] < ghosts[b]
		})

		allEls := append(append([]int(nil), owned...), ghosts...)

		// Local node set: owned nodes (owner == r) then ghost nodes,
		// each sorted by (owner, global id).
		ndSet := make(map[int]bool)
		for _, e := range allEls {
			for k := 0; k < 4; k++ {
				ndSet[int(global.ElNd[e][k])] = true
			}
		}
		var ownNodes, ghostNodes []int
		for n := range ndSet {
			if ndOwner[n] == r {
				ownNodes = append(ownNodes, n)
			} else {
				ghostNodes = append(ghostNodes, n)
			}
		}
		sort.Ints(ownNodes)
		sort.Slice(ghostNodes, func(a, b int) bool {
			if ndOwner[ghostNodes[a]] != ndOwner[ghostNodes[b]] {
				return ndOwner[ghostNodes[a]] < ndOwner[ghostNodes[b]]
			}
			return ghostNodes[a] < ghostNodes[b]
		})
		allNds := append(append([]int(nil), ownNodes...), ghostNodes...)

		e2l := make(map[int]int, len(allEls))
		for i, e := range allEls {
			e2l[e] = i
		}
		n2l := make(map[int]int, len(allNds))
		for i, n := range allNds {
			n2l[n] = i
		}
		elLocal[r] = e2l
		ndLocal[r] = n2l

		lm := &mesh.Mesh{
			ElNd:     make([][4]int32, len(allEls)),
			X:        make([]float64, len(allNds)),
			Y:        make([]float64, len(allNds)),
			Region:   make([]int32, len(allEls)),
			BCs:      make([]mesh.BC, len(allNds)),
			GlobalEl: appendIDs(nil, allEls),
			GlobalNd: appendIDs(nil, allNds),
			NOwnEl:   len(owned),
			NOwnNd:   len(ownNodes),
		}
		for i, e := range allEls {
			for k := 0; k < 4; k++ {
				lm.ElNd[i][k] = int32(n2l[int(global.ElNd[e][k])])
			}
			lm.Region[i] = global.Region[e]
		}
		for i, n := range allNds {
			lm.X[i] = global.X[n]
			lm.Y[i] = global.Y[n]
			lm.BCs[i] = global.BCs[n]
		}
		lm.BuildConnectivity()

		sm := &SubMesh{
			M:      lm,
			Rank:   r,
			ElSend: make(map[int][]int),
			ElRecv: make(map[int][]int),
			NdSend: make(map[int][]int),
			NdRecv: make(map[int][]int),
		}
		// Receive lists: ghosts grouped by owner, already in
		// (owner, global id) order.
		for i := len(owned); i < len(allEls); i++ {
			src := part[allEls[i]]
			sm.ElRecv[src] = append(sm.ElRecv[src], i)
		}
		for i := len(ownNodes); i < len(allNds); i++ {
			src := ndOwner[allNds[i]]
			sm.NdRecv[src] = append(sm.NdRecv[src], i)
		}
		subs[r] = sm
	}

	// Wire send lists to mirror each receiver's order.
	for r := 0; r < nparts; r++ {
		for src, recvIdx := range subs[r].ElRecv {
			send := make([]int, len(recvIdx))
			for i, li := range recvIdx {
				ge := int(subs[r].M.GlobalEl[li])
				sl, ok := elLocal[src][ge]
				if !ok || sl >= subs[src].M.NOwnEl {
					return nil, fmt.Errorf("partition: ghost element %d of rank %d not owned by rank %d", ge, r, src)
				}
				send[i] = sl
			}
			subs[src].ElSend[r] = send
		}
		for src, recvIdx := range subs[r].NdRecv {
			send := make([]int, len(recvIdx))
			for i, li := range recvIdx {
				gn := int(subs[r].M.GlobalNd[li])
				sl, ok := ndLocal[src][gn]
				if !ok || sl >= subs[src].M.NOwnNd {
					return nil, fmt.Errorf("partition: ghost node %d of rank %d not owned by rank %d", gn, r, src)
				}
				send[i] = sl
			}
			subs[src].NdSend[r] = send
		}
	}
	// When the global mesh is itself a renumbered view (GlobalEl
	// non-nil — see internal/order), compose the maps so every local
	// GlobalEl/GlobalNd carries the canonical generation id: everything
	// that presents global data (checkpoint gather/scatter, dumps,
	// result assembly) lands in canonical order without knowing a
	// renumbering happened. The composition must run after the
	// send-list wiring above, which keys on raw indices into global.
	if global.GlobalEl != nil {
		for r := 0; r < nparts; r++ {
			lm := subs[r].M
			for i, ge := range lm.GlobalEl {
				lm.GlobalEl[i] = global.GlobalEl[ge]
			}
			for i, gn := range lm.GlobalNd {
				lm.GlobalNd[i] = global.GlobalNd[gn]
			}
		}
	}
	for r := 0; r < nparts; r++ {
		nb := make(map[int]bool)
		for s := range subs[r].ElSend {
			nb[s] = true
		}
		for s := range subs[r].ElRecv {
			nb[s] = true
		}
		for s := range subs[r].NdSend {
			nb[s] = true
		}
		for s := range subs[r].NdRecv {
			nb[s] = true
		}
		for s := range nb {
			subs[r].Neighbours = append(subs[r].Neighbours, s)
		}
		sort.Ints(subs[r].Neighbours)
	}
	return subs, nil
}

// splitMeshes are the global meshes the decomposition is held to the
// reference on: generated, curved, skewed, and Hilbert- and
// RCM-renumbered (whose GlobalEl/GlobalNd Split must compose).
func splitMeshes(t testing.TB) map[string]*mesh.Mesh {
	t.Helper()
	disc, err := mesh.QuarterDisc(mesh.QuarterDiscSpec{N: 16, R: 1, AxisX: mesh.FixU, AxisY: mesh.FixV})
	if err != nil {
		t.Fatal(err)
	}
	skew, err := mesh.Rect(mesh.RectSpec{
		NX: 100, NY: 10, X0: 0, X1: 1, Y0: 0, Y1: 0.1,
		Distort: mesh.NewSaltzmannDistort(0.1, 0.01), Walls: mesh.DefaultWalls(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := map[string]*mesh.Mesh{
		"rect3x3": rectMesh(t, 3, 3), "rect11x7": rectMesh(t, 11, 7),
		"rect1024x32": sodMesh(t), "disc16": disc, "saltzmann": skew,
	}
	for _, kind := range []order.Kind{order.Hilbert, order.RCM} {
		for _, base := range []string{"rect11x7", "saltzmann"} {
			rm, err := order.Reorder(ms[base], kind)
			if err != nil {
				t.Fatal(err)
			}
			ms[base+"/"+string(kind)] = rm
		}
	}
	return ms
}

// TestRCBMatchesReference: selection gives the part vector of the full
// sort, on mesh centroids (32 elements share every x-centroid of the
// wide mesh) and on points drawn from a handful of duplicate
// coordinates.
func TestRCBMatchesReference(t *testing.T) {
	type points struct{ cx, cy []float64 }
	cases := map[string]points{}
	for name, m := range splitMeshes(t) {
		cx := make([]float64, m.NEl)
		cy := make([]float64, m.NEl)
		var x, y [4]float64
		for e := 0; e < m.NEl; e++ {
			m.GatherCoords(e, &x, &y)
			cx[e] = 0.25 * (x[0] + x[1] + x[2] + x[3])
			cy[e] = 0.25 * (y[0] + y[1] + y[2] + y[3])
		}
		cases[name] = points{cx, cy}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{7, 64, 1000} {
		p := points{make([]float64, n), make([]float64, n)}
		for i := range p.cx {
			p.cx[i], p.cy[i] = float64(rng.Intn(3)), float64(rng.Intn(2))
		}
		cases[fmt.Sprintf("duplicates%d", n)] = p
	}
	same := points{make([]float64, 50), make([]float64, 50)}
	cases["coincident50"] = same
	for name, p := range cases {
		for _, nparts := range []int{2, 3, 4, 7} {
			got, err := RCB(p.cx, p.cy, nparts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refRCB(p.cx, p.cy, nparts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s nparts=%d: part vector differs from the sort-based reference", name, nparts)
			}
		}
	}
}

// TestSplitMatchesReference: local numbering, ownership, the local mesh
// with its connectivity (which the reference derives serially, Split on
// a goroutine per rank), the four exchange maps and the neighbour lists
// are those of the map-based reference, for RCB and multilevel parts.
func TestSplitMatchesReference(t *testing.T) {
	for name, m := range splitMeshes(t) {
		for _, ranks := range []int{2, 4, 7} {
			for pn, partOf := range map[string]func(*mesh.Mesh, int) ([]int, error){"rcb": RCBMesh, "multilevel": MultilevelMesh} {
				if pn == "multilevel" && m.NEl > 5000 {
					continue
				}
				part, err := partOf(m, ranks)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Split(m, part, ranks)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refSplit(m, part, ranks)
				if err != nil {
					t.Fatal(err)
				}
				for r := range want {
					g, w := got[r], want[r]
					id := fmt.Sprintf("%s %s ranks=%d rank %d", name, pn, ranks, r)
					if g.Rank != w.Rank || g.M.NOwnEl != w.M.NOwnEl || g.M.NOwnNd != w.M.NOwnNd {
						t.Fatalf("%s: rank/ownership %d/%d/%d, reference %d/%d/%d", id, g.Rank, g.M.NOwnEl, g.M.NOwnNd, w.Rank, w.M.NOwnEl, w.M.NOwnNd)
					}
					if !slices.Equal(g.M.GlobalEl, w.M.GlobalEl) || !slices.Equal(g.M.GlobalNd, w.M.GlobalNd) {
						t.Fatalf("%s: GlobalEl/GlobalNd differ from the reference", id)
					}
					if !reflect.DeepEqual(g.M, w.M) {
						t.Fatalf("%s: local mesh (fields or serially derived connectivity) differs from the reference", id)
					}
					if !reflect.DeepEqual(g.ElSend, w.ElSend) || !reflect.DeepEqual(g.ElRecv, w.ElRecv) ||
						!reflect.DeepEqual(g.NdSend, w.NdSend) || !reflect.DeepEqual(g.NdRecv, w.NdRecv) {
						t.Fatalf("%s: exchange lists differ from the reference", id)
					}
					if !slices.Equal(g.Neighbours, w.Neighbours) {
						t.Fatalf("%s: neighbours %v, reference %v", id, g.Neighbours, w.Neighbours)
					}
				}
			}
		}
	}
}

// TestSplitBytesLinear pins that Split's memory is O(N), not
// O(nparts·N): seven ranks allocate about what two do.
func TestSplitBytesLinear(t *testing.T) {
	m := rectMesh(t, 256, 64)
	bytes := func(ranks int) float64 {
		part, err := RCBMesh(m, ranks)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Split(m, part, ranks); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	if b2, b7 := bytes(2), bytes(7); b7 > 1.25*b2 {
		t.Fatalf("Split allocates %.0f bytes at 7 ranks against %.0f at 2: not O(N)", b7, b2)
	}
}

// sodMesh is the benchmark's 32k-element mesh: 32 elements share every
// x-centroid.
func sodMesh(t testing.TB) *mesh.Mesh {
	t.Helper()
	m, err := mesh.Rect(mesh.RectSpec{NX: 1024, NY: 32, X0: 0, X1: 1, Y0: 0, Y1: 0.03125, Walls: mesh.DefaultWalls()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func BenchmarkRCB(b *testing.B) {
	m := sodMesh(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RCBMesh(m, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplit(b *testing.B) {
	m := sodMesh(b)
	part, err := RCBMesh(m, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Split(m, part, 2); err != nil {
			b.Fatal(err)
		}
	}
}
