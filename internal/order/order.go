// Package order renumbers a mesh for cache locality. BookLeaf's hot
// kernels are dominated by indirect gather/scatter over the element↔node
// connectivity; the generators emit row-major numberings whose node
// reuse distance grows with the mesh width, so on wide meshes every
// corner gather of row j+1 misses on lines that row j just touched.
// Renumbering elements along a space-filling curve (Hilbert) or by
// reverse Cuthill-McKee over the dual graph — and renumbering nodes by
// first touch in the new element order — shrinks both the node reuse
// window and the index span of each gather.
//
// A reordering is applied once, to the serial global mesh, right after
// problem setup and before any partitioning. The permuted mesh carries
// the permutation in Mesh.GlobalEl/GlobalNd (new index → canonical
// generation index), the same mechanism partitioned sub-meshes already
// use, so everything downstream that presents global data — checkpoint
// gather/scatter, result assembly, error attribution — lands in
// canonical order without knowing a reordering happened. Partitioning a
// reordered mesh composes the maps; an elastic repartition re-splits the
// same reordered global mesh, so the locality order survives
// supervision-driven re-decomposition for free.
package order

import (
	"fmt"
	"math"
	"slices"

	"bookleaf/internal/mesh"
)

// Kind selects a renumbering.
type Kind string

const (
	// None leaves the mesh untouched (the generators' row-major order);
	// runs are bitwise-identical to a build without this package.
	None Kind = "none"
	// Hilbert orders elements along a Hilbert space-filling curve over
	// their centroids.
	Hilbert Kind = "hilbert"
	// RCM orders elements by reverse Cuthill-McKee over the face-
	// adjacency dual graph.
	RCM Kind = "rcm"
)

// Parse maps a -reorder / [control] reorder value onto a Kind. The
// empty string means None.
func Parse(s string) (Kind, error) {
	switch Kind(s) {
	case "", None:
		return None, nil
	case Hilbert:
		return Hilbert, nil
	case RCM:
		return RCM, nil
	}
	return None, fmt.Errorf("order: unknown reorder kind %q (want none, hilbert or rcm)", s)
}

// Perm is a mesh renumbering: El[newE] = oldE and Nd[newN] = oldN are
// the gather maps a permuted mesh is assembled through, ElInv/NdInv the
// scatter inverses (ElInv[oldE] = newE).
type Perm struct {
	El, Nd       []int
	ElInv, NdInv []int
}

// invert fills inv with the inverse of perm.
func invert(perm []int) []int {
	inv := make([]int, len(perm))
	for n, o := range perm {
		inv[o] = n
	}
	return inv
}

// withNodes completes an element order into a full Perm: nodes are
// renumbered by first touch walking the new element order corner by
// corner, so each element's corner gather lands on recently-assigned
// (cache-warm) node indices.
func withNodes(m *mesh.Mesh, el []int) *Perm {
	p := &Perm{El: el, ElInv: invert(el)}
	p.Nd = make([]int, 0, m.NNd)
	p.NdInv = make([]int, m.NNd)
	for i := range p.NdInv {
		p.NdInv[i] = -1
	}
	for _, oe := range el {
		for k := 0; k < 4; k++ {
			on := m.ElNd[oe][k]
			if p.NdInv[on] < 0 {
				p.NdInv[on] = len(p.Nd)
				p.Nd = append(p.Nd, int(on))
			}
		}
	}
	// Nodes untouched by any element (none on generated meshes, but a
	// Perm must be total) keep their relative order at the tail.
	for on := 0; on < m.NNd; on++ {
		if p.NdInv[on] < 0 {
			p.NdInv[on] = len(p.Nd)
			p.Nd = append(p.Nd, on)
		}
	}
	return p
}

// compute returns the permutation of the given kind for mesh m. None
// yields the identity permutation.
func compute(m *mesh.Mesh, k Kind) (*Perm, error) {
	switch k {
	case None:
		el := make([]int, m.NEl)
		for i := range el {
			el[i] = i
		}
		return withNodes(m, el), nil
	case Hilbert:
		return withNodes(m, hilbertOrder(m)), nil
	case RCM:
		return withNodes(m, rcmOrder(m)), nil
	}
	return nil, fmt.Errorf("order: unknown reorder kind %q", k)
}

// hilbertBits is the per-axis resolution of the Hilbert key: 16 bits
// per axis distinguishes centroids down to 1/65536 of the domain
// extent, far below any practical cell size.
const hilbertBits = 16

// hilbertOrder sorts elements by the Hilbert index of their centroid
// (ties — coincident centroids at key resolution — break on the
// original index, keeping the sort deterministic). The index is 32 bits,
// so key and element pack into one uint64 whose natural order is that
// (key, element) order.
func hilbertOrder(m *mesh.Mesh) []int {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for n := 0; n < m.NNd; n++ {
		minX, maxX = math.Min(minX, m.X[n]), math.Max(maxX, m.X[n])
		minY, maxY = math.Min(minY, m.Y[n]), math.Max(maxY, m.Y[n])
	}
	sx, sy := maxX-minX, maxY-minY
	if sx <= 0 {
		sx = 1
	}
	if sy <= 0 {
		sy = 1
	}
	const side = 1 << hilbertBits
	keys := make([]uint64, m.NEl)
	for e := 0; e < m.NEl; e++ {
		var cx, cy float64
		for k := 0; k < 4; k++ {
			n := m.ElNd[e][k]
			cx += m.X[n]
			cy += m.Y[n]
		}
		cx, cy = cx/4, cy/4
		ix := int((cx - minX) / sx * (side - 1))
		iy := int((cy - minY) / sy * (side - 1))
		keys[e] = hilbertD(ix, iy)<<32 | uint64(e)
	}
	slices.Sort(keys)
	el := make([]int, m.NEl)
	for i, k := range keys {
		el[i] = int(uint32(k))
	}
	return el
}

// hilbertD converts grid cell (x, y) on the 2^hilbertBits square to its
// distance along the Hilbert curve (the classic rotate-and-fold walk).
func hilbertD(x, y int) uint64 {
	var d uint64
	for s := 1 << (hilbertBits - 1); s > 0; s >>= 1 {
		var rx, ry int
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant. The reflection is about the full grid
		// width: bits at or above s are already consumed, and the
		// all-ones complement keeps the still-unconsumed low bits
		// non-negative (a reflection about s-1 would go negative for
		// coordinates with high bits set).
		if ry == 0 {
			if rx == 1 {
				x = (1 << hilbertBits) - 1 - x
				y = (1 << hilbertBits) - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// rcmOrder runs reverse Cuthill-McKee on the element dual graph (ElEl,
// faces as edges): BFS from a minimum-degree seed with neighbours
// visited in ascending (degree, index) order, the final order reversed.
// Disconnected components (which generated meshes do not have, but a
// permutation must cover) are each seeded the same way.
func rcmOrder(m *mesh.Mesh) []int {
	deg := make([]int, m.NEl)
	for e := 0; e < m.NEl; e++ {
		for k := 0; k < 4; k++ {
			if m.ElEl[e][k] >= 0 {
				deg[e]++
			}
		}
	}
	visited := make([]bool, m.NEl)
	order := make([]int, 0, m.NEl)
	queue := make([]int, 0, m.NEl)
	var nbrs [4]int
	for len(order) < m.NEl {
		// Seed: the unvisited element of minimum degree, lowest index
		// on ties — a cheap peripheral-vertex heuristic.
		seed, seedDeg := -1, 5
		for e := 0; e < m.NEl; e++ {
			if !visited[e] && deg[e] < seedDeg {
				seed, seedDeg = e, deg[e]
			}
		}
		visited[seed] = true
		queue = append(queue[:0], seed)
		for len(queue) > 0 {
			e := queue[0]
			queue = queue[1:]
			order = append(order, e)
			nn := 0
			for k := 0; k < 4; k++ {
				if nb := int(m.ElEl[e][k]); nb >= 0 && !visited[nb] {
					visited[nb] = true
					nbrs[nn] = nb
					nn++
				}
			}
			// Insertion sort of the at most four new neighbours.
			for i := 1; i < nn; i++ {
				for j := i; j > 0; j-- {
					a, b := nbrs[j-1], nbrs[j]
					if deg[a] < deg[b] || (deg[a] == deg[b] && a < b) {
						break
					}
					nbrs[j-1], nbrs[j] = b, a
				}
			}
			queue = append(queue, nbrs[:nn]...)
		}
	}
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// apply returns a new mesh renumbered by p. The result carries the
// canonical ids in GlobalEl/GlobalNd (composed with m's own maps when m
// is itself a renumbered or partitioned view), which is what keeps
// checkpoints, dumps and results in canonical generation order. Only
// fully-owned meshes may be reordered — renumbering is a setup-time
// transform, applied before any partitioning.
func apply(m *mesh.Mesh, p *Perm) (*mesh.Mesh, error) {
	if m.NOwnEl != m.NEl || m.NOwnNd != m.NNd {
		return nil, fmt.Errorf("order: cannot reorder a partitioned mesh (%d/%d owned elements)", m.NOwnEl, m.NEl)
	}
	if len(p.El) != m.NEl || len(p.Nd) != m.NNd {
		return nil, fmt.Errorf("order: permutation sized %d/%d for mesh %d/%d", len(p.El), len(p.Nd), m.NEl, m.NNd)
	}
	out := &mesh.Mesh{
		NOwnEl: m.NEl, NOwnNd: m.NNd,
		ElNd: make([][4]int32, m.NEl),
		X:    make([]float64, m.NNd),
		Y:    make([]float64, m.NNd),
		BCs:  make([]mesh.BC, m.NNd),
	}
	if m.Region != nil {
		out.Region = make([]int32, m.NEl)
	}
	out.GlobalEl = make([]int32, m.NEl)
	out.GlobalNd = make([]int32, m.NNd)
	for ne, oe := range p.El {
		for k := 0; k < 4; k++ {
			out.ElNd[ne][k] = int32(p.NdInv[m.ElNd[oe][k]])
		}
		if m.Region != nil {
			out.Region[ne] = m.Region[oe]
		}
		out.GlobalEl[ne] = int32(m.GlobalElID(oe))
	}
	for nn, on := range p.Nd {
		out.X[nn], out.Y[nn] = m.X[on], m.Y[on]
		out.BCs[nn] = m.BCs[on]
		out.GlobalNd[nn] = int32(m.GlobalNdID(on))
	}
	out.BuildConnectivity()
	if err := out.Check(); err != nil {
		return nil, fmt.Errorf("order: reordered mesh invalid: %w", err)
	}
	return out, nil
}

// Reorder computes and applies the renumbering of the given kind.
// None returns m unchanged (no permutation, no GlobalEl maps — bitwise
// the pre-reorder behaviour).
func Reorder(m *mesh.Mesh, k Kind) (*mesh.Mesh, error) {
	if k == None || k == "" {
		return m, nil
	}
	p, err := compute(m, k)
	if err != nil {
		return nil, err
	}
	return apply(m, p)
}
