// Package partition implements BookLeaf's spatial domain decomposition.
// The paper offers "a simple RCB strategy or a hypergraph strategy via
// METIS"; this package provides both from scratch: recursive coordinate
// bisection over element centroids, and a multilevel k-way graph
// partitioner (heavy-edge-matching coarsening, greedy-growth initial
// partition, boundary Fiduccia-Mattheyses refinement — the METIS
// algorithm family) over the element dual graph.
//
// Both partitioners are serial, as in the reference implementation (the
// paper notes the serial partitioner comes to dominate at scale, which
// motivated its hybrid scaling study).
package partition

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"bookleaf/internal/mesh"
)

// Graph is a CSR adjacency structure with edge weights.
type Graph struct {
	XAdj   []int // length nv+1
	Adj    []int // neighbour vertex ids
	EWgt   []int // edge weights, parallel to Adj
	VWgt   []int // vertex weights, length nv
	NVerts int
}

// DualGraph builds the element dual graph of a mesh: one vertex per
// element, one unit-weight edge per shared face.
func DualGraph(m *mesh.Mesh) *Graph {
	g := &Graph{NVerts: m.NEl}
	g.XAdj = make([]int, m.NEl+1)
	for e := 0; e < m.NEl; e++ {
		for k := 0; k < 4; k++ {
			if m.ElEl[e][k] >= 0 {
				g.XAdj[e+1]++
			}
		}
	}
	for e := 0; e < m.NEl; e++ {
		g.XAdj[e+1] += g.XAdj[e]
	}
	g.Adj = make([]int, g.XAdj[m.NEl])
	g.EWgt = make([]int, g.XAdj[m.NEl])
	fill := make([]int, m.NEl)
	for e := 0; e < m.NEl; e++ {
		for k := 0; k < 4; k++ {
			if nb := m.ElEl[e][k]; nb >= 0 {
				idx := g.XAdj[e] + fill[e]
				g.Adj[idx] = int(nb)
				g.EWgt[idx] = 1
				fill[e]++
			}
		}
	}
	g.VWgt = make([]int, m.NEl)
	for i := range g.VWgt {
		g.VWgt[i] = 1
	}
	return g
}

// EdgeCut returns the total weight of edges crossing partition
// boundaries (each edge counted once).
func (g *Graph) EdgeCut(part []int) int {
	cut := 0
	for v := 0; v < g.NVerts; v++ {
		for i := g.XAdj[v]; i < g.XAdj[v+1]; i++ {
			if u := g.Adj[i]; u > v && part[u] != part[v] {
				cut += g.EWgt[i]
			}
		}
	}
	return cut
}

// Imbalance returns max part weight / ideal part weight.
func Imbalance(part []int, weights []int, nparts int) float64 {
	sums := make([]int, nparts)
	total := 0
	for v, p := range part {
		w := 1
		if weights != nil {
			w = weights[v]
		}
		sums[p] += w
		total += w
	}
	ideal := float64(total) / float64(nparts)
	max := 0
	for _, s := range sums {
		if s > max {
			max = s
		}
	}
	if ideal == 0 {
		return 1
	}
	return float64(max) / ideal
}

// RCB partitions points (cx, cy) with unit weights into nparts by
// recursive coordinate bisection, splitting along the axis of larger
// spread at the weighted median. Parts are contiguous in space.
func RCB(cx, cy []float64, nparts int) ([]int, error) {
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
	rcbSplit(cx, cy, idx, 0, nparts, part)
	return part, nil
}

func rcbSplit(cx, cy []float64, idx []int, base, k int, part []int) {
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
	// Split proportionally to kl:kr under the total order (coordinate,
	// ties broken by index for determinism). Each half is re-ordered by
	// its own recursion, so only which points fall on which side
	// matters: a selection, not a sort.
	split := len(idx) * kl / k
	selectSmallest(coord, idx, split)
	rcbSplit(cx, cy, idx[:split], base, kl, part)
	rcbSplit(cx, cy, idx[split:], base+kl, kr, part)
}

// selectSmallest rearranges idx so that idx[:k] holds its k smallest
// entries under the (coord, index) order. It is a quickselect with a
// median-of-three pivot that sorts what is left if the pivots keep
// splitting badly, so the worst case stays O(n log n).
func selectSmallest(coord []float64, idx []int, k int) {
	less := func(a, b int) bool {
		return coord[a] < coord[b] || (coord[a] == coord[b] && a < b)
	}
	// Everything in idx[:lo] is below everything in idx[lo:hi], which is
	// below everything in idx[hi:], and lo <= k <= hi.
	lo, hi := 0, len(idx)
	for budget := 2 * bits.Len(uint(len(idx))); lo < k && k < hi; budget-- {
		if budget == 0 {
			slices.SortFunc(idx[lo:hi], func(a, b int) int {
				return cmp.Or(cmp.Compare(coord[a], coord[b]), cmp.Compare(a, b))
			})
			return
		}
		// Median of first, middle, last to idx[lo] as the pivot.
		m, l := lo+(hi-lo)/2, hi-1
		if less(idx[m], idx[lo]) != less(idx[m], idx[l]) {
			idx[lo], idx[m] = idx[m], idx[lo]
		} else if less(idx[l], idx[lo]) != less(idx[l], idx[m]) {
			idx[lo], idx[l] = idx[l], idx[lo]
		}
		pv := idx[lo]
		// Entries are distinct, so each is strictly below or above pv.
		i, j := lo+1, hi-1
		for {
			for i <= j && less(idx[i], pv) {
				i++
			}
			for i <= j && less(pv, idx[j]) {
				j--
			}
			if i >= j {
				break
			}
			idx[i], idx[j] = idx[j], idx[i]
			i++
			j--
		}
		idx[lo], idx[j] = idx[j], pv
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
}

// RCBMesh runs RCB over a mesh's element centroids.
func RCBMesh(m *mesh.Mesh, nparts int) ([]int, error) {
	cx := make([]float64, m.NEl)
	cy := make([]float64, m.NEl)
	var x, y [4]float64
	for e := 0; e < m.NEl; e++ {
		m.GatherCoords(e, &x, &y)
		cx[e] = 0.25 * (x[0] + x[1] + x[2] + x[3])
		cy[e] = 0.25 * (y[0] + y[1] + y[2] + y[3])
	}
	return RCB(cx, cy, nparts)
}

// Multilevel partitions the graph into nparts by multilevel recursive
// bisection: the graph is coarsened by heavy-edge matching, bisected by
// greedy region growing on the coarsest level, refined by FM boundary
// passes on each uncoarsening level, and the halves are recursed.
func Multilevel(g *Graph, nparts int) ([]int, error) {
	if nparts < 1 {
		return nil, fmt.Errorf("partition: nparts = %d, want >= 1", nparts)
	}
	if nparts > g.NVerts && g.NVerts > 0 {
		return nil, fmt.Errorf("partition: nparts = %d exceeds vertex count %d", nparts, g.NVerts)
	}
	part := make([]int, g.NVerts)
	verts := make([]int, g.NVerts)
	for i := range verts {
		verts[i] = i
	}
	mlSplit(g, verts, 0, nparts, part)
	return part, nil
}

// MultilevelMesh runs the multilevel partitioner over a mesh dual graph.
func MultilevelMesh(m *mesh.Mesh, nparts int) ([]int, error) {
	return Multilevel(DualGraph(m), nparts)
}

// mlSplit recursively bisects the subgraph induced by verts.
func mlSplit(g *Graph, verts []int, base, k int, part []int) {
	if k == 1 {
		for _, v := range verts {
			part[v] = base
		}
		return
	}
	kl := k / 2
	kr := k - kl
	sub := induce(g, verts)
	side := bisect(sub, float64(kl)/float64(k))
	var left, right []int
	for i, v := range verts {
		if side[i] == 0 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	// Guarantee each side can host its share of parts: tiny or
	// pathological graphs can leave a side undersized after refinement.
	for len(left) < kl {
		left = append(left, right[len(right)-1])
		right = right[:len(right)-1]
	}
	for len(right) < kr {
		right = append(right, left[len(left)-1])
		left = left[:len(left)-1]
	}
	mlSplit(g, left, base, kl, part)
	mlSplit(g, right, base+kl, kr, part)
}

// induce extracts the subgraph on the given vertices (renumbered 0..n-1).
func induce(g *Graph, verts []int) *Graph {
	n := len(verts)
	local := make(map[int]int, n)
	for i, v := range verts {
		local[v] = i
	}
	sub := &Graph{NVerts: n, XAdj: make([]int, n+1), VWgt: make([]int, n)}
	for i, v := range verts {
		sub.VWgt[i] = g.VWgt[v]
		for e := g.XAdj[v]; e < g.XAdj[v+1]; e++ {
			if _, ok := local[g.Adj[e]]; ok {
				sub.XAdj[i+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		sub.XAdj[i+1] += sub.XAdj[i]
	}
	sub.Adj = make([]int, sub.XAdj[n])
	sub.EWgt = make([]int, sub.XAdj[n])
	fill := make([]int, n)
	for i, v := range verts {
		for e := g.XAdj[v]; e < g.XAdj[v+1]; e++ {
			if li, ok := local[g.Adj[e]]; ok {
				idx := sub.XAdj[i] + fill[i]
				sub.Adj[idx] = li
				sub.EWgt[idx] = g.EWgt[e]
				fill[i]++
			}
		}
	}
	return sub
}

// bisect splits g into side 0 (target weight fraction f) and side 1
// using the multilevel scheme. Returns per-vertex side labels.
func bisect(g *Graph, f float64) []int {
	const coarsestSize = 64
	if g.NVerts <= coarsestSize {
		side := growBisection(g, f)
		fmRefine(g, side, f)
		return side
	}
	cg, cmap := coarsen(g)
	if cg.NVerts >= g.NVerts {
		// Matching made no progress (e.g. star graphs): stop coarsening.
		side := growBisection(g, f)
		fmRefine(g, side, f)
		return side
	}
	cside := bisect(cg, f)
	side := make([]int, g.NVerts)
	for v := 0; v < g.NVerts; v++ {
		side[v] = cside[cmap[v]]
	}
	fmRefine(g, side, f)
	return side
}

// coarsen contracts a heavy-edge matching. Returns the coarse graph and
// the fine→coarse vertex map.
func coarsen(g *Graph) (*Graph, []int) {
	n := g.NVerts
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	// Visit vertices in order; match each unmatched vertex with its
	// heaviest unmatched neighbour.
	cmap := make([]int, n)
	nc := 0
	for v := 0; v < n; v++ {
		if match[v] >= 0 {
			continue
		}
		best, bestW := -1, -1
		for e := g.XAdj[v]; e < g.XAdj[v+1]; e++ {
			u := g.Adj[e]
			if u != v && match[u] < 0 && g.EWgt[e] > bestW {
				best, bestW = u, g.EWgt[e]
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
			cmap[v] = nc
			cmap[best] = nc
		} else {
			match[v] = v
			cmap[v] = nc
		}
		nc++
	}
	// Build coarse graph with aggregated weights.
	cg := &Graph{NVerts: nc, VWgt: make([]int, nc), XAdj: make([]int, nc+1)}
	type edge struct{ u, w int }
	adjLists := make([][]edge, nc)
	seen := make(map[int]int) // coarse neighbour -> position in list
	for v := 0; v < n; v++ {
		cv := cmap[v]
		cg.VWgt[cv] += g.VWgt[v]
	}
	for v := 0; v < n; v++ {
		cv := cmap[v]
		if match[v] < v && match[v] != v {
			continue // process each pair once, at the lower vertex
		}
		members := []int{v}
		if match[v] != v && match[v] >= 0 {
			members = append(members, match[v])
		}
		clear(seen)
		for _, mv := range members {
			for e := g.XAdj[mv]; e < g.XAdj[mv+1]; e++ {
				cu := cmap[g.Adj[e]]
				if cu == cv {
					continue
				}
				if pos, ok := seen[cu]; ok {
					adjLists[cv][pos].w += g.EWgt[e]
				} else {
					seen[cu] = len(adjLists[cv])
					adjLists[cv] = append(adjLists[cv], edge{cu, g.EWgt[e]})
				}
			}
		}
	}
	for cv := 0; cv < nc; cv++ {
		cg.XAdj[cv+1] = cg.XAdj[cv] + len(adjLists[cv])
	}
	cg.Adj = make([]int, cg.XAdj[nc])
	cg.EWgt = make([]int, cg.XAdj[nc])
	for cv := 0; cv < nc; cv++ {
		for i, e := range adjLists[cv] {
			cg.Adj[cg.XAdj[cv]+i] = e.u
			cg.EWgt[cg.XAdj[cv]+i] = e.w
		}
	}
	return cg, cmap
}

// growBisection seeds side 0 from a peripheral vertex and grows it by
// BFS until it holds the target weight fraction.
func growBisection(g *Graph, f float64) []int {
	n := g.NVerts
	side := make([]int, n)
	for i := range side {
		side[i] = 1
	}
	if n == 0 {
		return side
	}
	total := 0
	for _, w := range g.VWgt {
		total += w
	}
	target := int(f*float64(total) + 0.5)
	// BFS from vertex 0 to find a peripheral seed, then BFS-grow.
	seed := bfsFarthest(g, 0)
	queue := []int{seed}
	side[seed] = 0
	grown := g.VWgt[seed]
	visited := make([]bool, n)
	visited[seed] = true
	for len(queue) > 0 && grown < target {
		v := queue[0]
		queue = queue[1:]
		for e := g.XAdj[v]; e < g.XAdj[v+1]; e++ {
			u := g.Adj[e]
			if !visited[u] {
				visited[u] = true
				if grown+g.VWgt[u] <= target || grown == 0 {
					side[u] = 0
					grown += g.VWgt[u]
					queue = append(queue, u)
				}
			}
		}
	}
	// Disconnected graphs: if growth stalled short of target, absorb
	// arbitrary side-1 vertices.
	for v := 0; v < n && grown < target; v++ {
		if side[v] == 1 {
			side[v] = 0
			grown += g.VWgt[v]
		}
	}
	return side
}

func bfsFarthest(g *Graph, start int) int {
	n := g.NVerts
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	queue := []int{start}
	last := start
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		last = v
		for e := g.XAdj[v]; e < g.XAdj[v+1]; e++ {
			if u := g.Adj[e]; dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return last
}

// fmRefine performs Fiduccia-Mattheyses-style boundary refinement:
// repeated passes moving the boundary vertex with the best gain subject
// to a balance constraint, until a pass yields no improvement.
func fmRefine(g *Graph, side []int, f float64) {
	n := g.NVerts
	if n < 2 {
		return
	}
	total := 0
	for _, w := range g.VWgt {
		total += w
	}
	target0 := f * float64(total)
	tol := 0.04*float64(total) + float64(maxVWgt(g))
	w0 := 0
	for v := 0; v < n; v++ {
		if side[v] == 0 {
			w0 += g.VWgt[v]
		}
	}
	gain := func(v int) int {
		gn := 0
		for e := g.XAdj[v]; e < g.XAdj[v+1]; e++ {
			if side[g.Adj[e]] == side[v] {
				gn -= g.EWgt[e]
			} else {
				gn += g.EWgt[e]
			}
		}
		return gn
	}
	for pass := 0; pass < 8; pass++ {
		improved := false
		// Collect boundary vertices.
		for v := 0; v < n; v++ {
			onBoundary := false
			for e := g.XAdj[v]; e < g.XAdj[v+1]; e++ {
				if side[g.Adj[e]] != side[v] {
					onBoundary = true
					break
				}
			}
			if !onBoundary {
				continue
			}
			gn := gain(v)
			if gn <= 0 {
				continue
			}
			// Balance check for moving v to the other side.
			nw0 := w0
			if side[v] == 0 {
				nw0 -= g.VWgt[v]
			} else {
				nw0 += g.VWgt[v]
			}
			if absF(float64(nw0)-target0) > tol && absF(float64(nw0)-target0) > absF(float64(w0)-target0) {
				continue
			}
			side[v] = 1 - side[v]
			w0 = nw0
			improved = true
		}
		if !improved {
			break
		}
	}
}

func maxVWgt(g *Graph) int {
	m := 1
	for _, w := range g.VWgt {
		if w > m {
			m = w
		}
	}
	return m
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
