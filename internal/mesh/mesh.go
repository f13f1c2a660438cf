// Package mesh implements BookLeaf's unstructured 2-D quadrilateral
// mesh: storage, connectivity (element→node, its node→corner transpose,
// element↔element across faces), boundary-condition flags, generators
// for the four test problems, and consistency checking. Each fact is
// stored once and only where it is read: the explicit face list is the
// remap's and is built on its demand (BuildFaces).
//
// The mesh is "unstructured" in the BookLeaf sense: although the
// generators produce logically rectangular meshes, nothing downstream
// relies on structure — all kernels walk flat connectivity arrays, the
// number of elements around a node is arbitrary, and partitioned
// sub-meshes with ghost layers are just meshes whose owned entities form
// a prefix of the numbering.
package mesh

import (
	"fmt"
	"math"

	"bookleaf/internal/geom"
)

// BC is a per-node boundary-condition bitmask.
type BC uint8

// Boundary-condition flags. FixU/FixV zero the corresponding velocity
// component after the acceleration calculation (reflective walls);
// Piston marks nodes whose velocity is prescribed by the problem driver
// (Saltzmann's moving wall).
const (
	BCNone BC = 0
	FixU   BC = 1 << iota
	FixV
	Piston
	// FrozenVel pins a node's velocity at its initial value — the
	// far-field inflow condition of the Noh problem, whose exact
	// pre-shock solution has constant velocity along node paths.
	FrozenVel
)

// Face is one mesh face (edge shared by at most two elements). Left is
// the element for which the face runs counter-clockwise from N1 to N2;
// Right is the neighbour, or -1 on the domain boundary.
type Face struct {
	N1, N2      int32
	Left, Right int32
}

// Mesh holds the connectivity and coordinates of an unstructured quad
// mesh. All slices indexed by element have length NEl; by node, NNd.
// Every index the mesh stores — node, element and corner ids, CSR
// offsets, regions, global ids — is an int32, which halves the bytes a
// gather streams through them and caps a mesh at MaxElements (DESIGN.md
// §4.1). Counts and loop variables stay int.
type Mesh struct {
	NEl, NNd int

	// ElNd lists the four nodes of each element, counter-clockwise.
	ElNd [][4]int32
	// ElEl lists, for each element, the neighbouring element across
	// edge k (node k to node k+1), or -1 at a boundary.
	ElEl [][4]int32
	// Faces is the unique face list, nil until BuildFaces: only the
	// remap reads it.
	Faces []Face

	// Node→corner adjacency in CSR form, the transpose of ElNd: the
	// corners at node n are NdCorner[NdElStart[n]:NdElStart[n+1]], each
	// the flat slot 4*e + k of corner k of element e — so the element is
	// c>>2 and the corner c&3, a shift and a mask on a value already
	// loaded. The acceleration gather sums a node's incident corner
	// forces with one indexed read per corner through this array.
	// Entries for a node ascend in (element, corner) order — the same
	// order an element-ordered scatter would accumulate them — so gather
	// sums are bitwise-identical to the reference scatter at any thread
	// count.
	NdElStart []int32
	NdCorner  []int32

	// X, Y are node coordinates.
	X, Y []float64

	// Region is the per-element region (material) index.
	Region []int32

	// BCs is the per-node boundary-condition mask.
	BCs []BC

	// Ownership: elements [0,NOwnEl) and nodes [0,NOwnNd) are owned;
	// the rest are ghosts. A generated or renumbered mesh owns
	// everything; a sub-mesh may own elements and no node.
	NOwnEl, NOwnNd int

	// GlobalEl / GlobalNd map local indices to global ones for
	// partitioned or renumbered meshes; nil means the identity (read
	// them through GlobalElID / GlobalNdID).
	GlobalEl, GlobalNd []int32
}

// GlobalElID returns the global id of local element i: GlobalEl[i], or
// i itself on a mesh that was never partitioned or renumbered.
func (m *Mesh) GlobalElID(i int) int {
	if m.GlobalEl == nil {
		return i
	}
	return int(m.GlobalEl[i])
}

// GlobalNdID is GlobalElID for nodes.
func (m *Mesh) GlobalNdID(i int) int {
	if m.GlobalNd == nil {
		return i
	}
	return int(m.GlobalNd[i])
}

// GatherCoords copies the coordinates of element e's nodes into x, y.
func (m *Mesh) GatherCoords(e int, x, y *[4]float64) {
	nd := &m.ElNd[e]
	for k := 0; k < 4; k++ {
		x[k] = m.X[nd[k]]
		y[k] = m.Y[nd[k]]
	}
}

// Volume returns the area of element e from current coordinates.
func (m *Mesh) Volume(e int) float64 {
	var x, y [4]float64
	m.GatherCoords(e, &x, &y)
	return geom.Area(&x, &y)
}

// TotalVolume returns the summed area of owned elements.
func (m *Mesh) TotalVolume() float64 {
	var sum float64
	for e := 0; e < m.NOwnEl; e++ {
		sum += m.Volume(e)
	}
	return sum
}

// CornersAround returns the corner slots 4*e + k at node n, ascending.
func (m *Mesh) CornersAround(n int) []int32 {
	return m.NdCorner[m.NdElStart[n]:m.NdElStart[n+1]]
}

// BuildConnectivity derives the node→corner CSR and ElEl from ElNd, in
// time linear in the mesh and with a fixed number of allocations.
// Generators, the reorderer and the partitioner call this after
// assembling ElNd, X, Y and the ownership counts, which it leaves alone.
//
// An edge finds its other element through the CSR: side k of element e
// runs n1→n2, and the neighbour is the element around n1, other than e,
// that holds n2 next to n1 (in either orientation).
func (m *Mesh) BuildConnectivity() {
	m.NEl = len(m.ElNd)
	m.NNd = len(m.X)

	// Node→element CSR.
	start := make([]int32, m.NNd+1)
	for e := range m.ElNd {
		for k := 0; k < 4; k++ {
			start[m.ElNd[e][k]+1]++
		}
	}
	for n := 0; n < m.NNd; n++ {
		start[n+1] += start[n]
	}
	m.NdElStart = start
	m.NdCorner = make([]int32, start[m.NNd])
	// Fill by advancing each node's start, then shift the starts back.
	for e := range m.ElNd {
		for k := 0; k < 4; k++ {
			n := m.ElNd[e][k]
			m.NdCorner[start[n]] = int32(4*e + k)
			start[n]++
		}
	}
	copy(start[1:], start[:m.NNd])
	start[0] = 0

	m.ElEl = make([][4]int32, m.NEl)
	m.Faces = nil // of the connectivity this call replaces
	for e := range m.ElNd {
		nd := &m.ElNd[e]
		for k := 0; k < 4; k++ {
			n1, n2 := nd[k], nd[(k+1)&3]
			nb := int32(-1)
			for _, c := range m.CornersAround(int(n1)) {
				o := &m.ElNd[c>>2]
				if int(c>>2) != e && (o[(c+3)&3] == n2 || o[(c+1)&3] == n2) {
					nb = c >> 2
					break
				}
			}
			m.ElEl[e][k] = nb
		}
	}
}

// BuildFaces derives the unique face list from ElEl, once: a mesh that
// has its faces keeps them. The remap is the only reader, so
// ale.NewRemapper is the only caller and a Lagrangian run never pays
// for them; a mesh belongs to one rank, so the call takes no lock.
//
// The order of Faces is a contract. Interior faces come first, one per
// (e, k) in ascending order whose neighbour has the lower index, with
// Left that lower element and N1→N2 its side; boundary faces follow in
// ascending (element, side). The remap replays each element's incident
// faces in face-index order to reproduce the serial flux sums bitwise
// (ElemFaces, DESIGN.md §11), so a different interior order changes
// results in the last bit.
func (m *Mesh) BuildFaces() {
	if m.Faces != nil {
		return
	}
	// A planar mesh has NNd + NEl - χ edges, so this holds every face of
	// a mesh without holes.
	m.Faces = make([]Face, 0, m.NNd+m.NEl)
	for e := range m.ElEl {
		for k := 0; k < 4; k++ {
			nb := m.ElEl[e][k]
			if nb < 0 || int(nb) >= e {
				continue
			}
			// The lower element's side on these two nodes, as it runs there.
			n1, n2 := m.ElNd[e][k], m.ElNd[e][(k+1)&3]
			o, s := &m.ElNd[nb], 0
			for s < 3 && !(o[s] == n2 && o[(s+1)&3] == n1 || o[s] == n1 && o[(s+1)&3] == n2) {
				s++
			}
			m.Faces = append(m.Faces, Face{N1: o[s], N2: o[(s+1)&3], Left: nb, Right: int32(e)})
		}
	}
	for e := range m.ElEl {
		for k := 0; k < 4; k++ {
			if m.ElEl[e][k] < 0 {
				m.Faces = append(m.Faces, Face{N1: m.ElNd[e][k], N2: m.ElNd[e][(k+1)&3], Left: int32(e), Right: -1})
			}
		}
	}
}

// Check validates mesh invariants: index ranges, positive element areas,
// symmetric element adjacency, a node→corner CSR that is well-formed
// and the inverse of ElNd, and, on a mesh that owns all of its entities,
// the Euler characteristic V - E + F = 1 of a simply-connected planar
// mesh (faces not counting the outer region).
func (m *Mesh) Check() error {
	if m.NEl != len(m.ElNd) || m.NNd != len(m.X) || len(m.X) != len(m.Y) {
		return fmt.Errorf("mesh: size mismatch NEl=%d len(ElNd)=%d NNd=%d len(X)=%d len(Y)=%d",
			m.NEl, len(m.ElNd), m.NNd, len(m.X), len(m.Y))
	}
	for e := range m.ElNd {
		for k := 0; k < 4; k++ {
			n := m.ElNd[e][k]
			if n < 0 || int(n) >= m.NNd {
				return fmt.Errorf("mesh: element %d corner %d references node %d outside [0,%d)", e, k, n, m.NNd)
			}
		}
		if v := m.Volume(e); v <= 0 {
			return fmt.Errorf("mesh: element %d has non-positive area %v", e, v)
		}
	}
	for e := range m.ElEl {
		for k := 0; k < 4; k++ {
			nb := m.ElEl[e][k]
			if nb < 0 {
				continue
			}
			found := false
			for kk := 0; kk < 4; kk++ {
				if int(m.ElEl[nb][kk]) == e {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("mesh: adjacency not symmetric between elements %d and %d", e, nb)
			}
		}
	}
	// The CSR is validated before it indexes anything: starts run
	// non-decreasing from 0 to the slot count, every slot names a real
	// corner, and that corner holds the node (the inverse of ElNd).
	if len(m.NdElStart) != m.NNd+1 {
		return fmt.Errorf("mesh: node→corner CSR has %d starts for %d nodes", len(m.NdElStart), m.NNd)
	}
	if m.NdElStart[0] != 0 || int(m.NdElStart[m.NNd]) != len(m.NdCorner) {
		return fmt.Errorf("mesh: node→corner CSR spans [%d,%d) of %d slots", m.NdElStart[0], m.NdElStart[m.NNd], len(m.NdCorner))
	}
	for n := 0; n < m.NNd; n++ {
		lo, hi := int(m.NdElStart[n]), int(m.NdElStart[n+1])
		if lo > hi || hi > len(m.NdCorner) {
			return fmt.Errorf("mesh: node %d CSR range [%d,%d) not within [0,%d]", n, lo, hi, len(m.NdCorner))
		}
		for i := lo; i < hi; i++ {
			c := m.NdCorner[i]
			if c < 0 || int(c) >= 4*m.NEl {
				return fmt.Errorf("mesh: node %d corner slot %d outside [0,%d)", n, c, 4*m.NEl)
			}
			if int(m.ElNd[c>>2][c&3]) != n {
				return fmt.Errorf("mesh: node %d CSR entry (el %d corner %d) inconsistent", n, c>>2, c&3)
			}
			if i > lo && c <= m.NdCorner[i-1] {
				return fmt.Errorf("mesh: node %d corner slots not ascending", n)
			}
		}
	}
	// Euler characteristic. A reordered mesh carries GlobalEl but is
	// still the whole domain; a sub-mesh with a ghost layer is not. The
	// edge count does not read ElEl or Faces: each element around node a
	// contributes its two edges at a, and the edge to a higher node b is
	// counted the first time b is stamped with a.
	if m.NOwnEl == m.NEl && m.NOwnNd == m.NNd {
		stamp := make([]int, m.NNd)
		edges := 0
		for a := 0; a < m.NNd; a++ {
			for _, c := range m.CornersAround(a) {
				nd := &m.ElNd[c>>2]
				for _, b := range [2]int32{nd[(c+1)&3], nd[(c+3)&3]} {
					if int(b) > a && stamp[b] != a+1 {
						stamp[b] = a + 1
						edges++
					}
				}
			}
		}
		if chi := m.NNd - edges + m.NEl; chi != 1 {
			return fmt.Errorf("mesh: Euler characteristic V-E+F = %d, want 1", chi)
		}
	}
	return nil
}

// Distort is a coordinate transform applied by generators.
type Distort func(x, y float64) (float64, float64)

// RectSpec describes a generated rectangular region mesh.
type RectSpec struct {
	NX, NY         int     // cells in x and y
	X0, X1, Y0, Y1 float64 // domain extent
	// RegionOf assigns a region index from the undistorted cell
	// centre; nil means region 0 everywhere.
	RegionOf func(cx, cy float64) int
	// Distort remaps node coordinates (Saltzmann); nil for none.
	Distort Distort
	// WallBC controls reflective-wall flags on the four domain edges
	// (left, right, bottom, top). Generators default to all reflective
	// when nil is passed to Rect via DefaultWalls.
	Walls WallSpec
}

// WallSpec selects the boundary condition on each domain wall.
type WallSpec struct {
	Left, Right, Bottom, Top BC
}

// DefaultWalls gives reflective conditions on all four walls: vertical
// walls fix u, horizontal walls fix v.
func DefaultWalls() WallSpec {
	return WallSpec{Left: FixU, Right: FixU, Bottom: FixV, Top: FixV}
}

// MaxElements is the largest mesh a generator builds. The corner id
// 4·e+k is an int32, so 4·NEl must fit in one; an nx×ny grid within it
// has nx+ny ≤ NEl+1 and so NNd ≤ 2·NEl+2, which fits as well.
const MaxElements = math.MaxInt32 / 4

// TooLargeError reports a generator asked for more than MaxElements
// elements. It is returned before anything is allocated.
type TooLargeError struct {
	Generator string
	NX, NY    int
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("mesh: %s %dx%d exceeds the 32-bit index ceiling of %d elements",
		e.Generator, e.NX, e.NY, MaxElements)
}

// checkSize returns a *TooLargeError unless nx·ny ≤ MaxElements, for
// nx, ny ≥ 1. It divides instead of forming nx·ny, which can overflow.
func checkSize(generator string, nx, ny int) error {
	if nx > MaxElements/ny {
		return &TooLargeError{Generator: generator, NX: nx, NY: ny}
	}
	return nil
}

// Rect generates an NX×NY quadrilateral mesh of [X0,X1]×[Y0,Y1].
func Rect(spec RectSpec) (*Mesh, error) {
	if spec.NX < 1 || spec.NY < 1 {
		return nil, fmt.Errorf("mesh: Rect needs NX,NY >= 1, got %d,%d", spec.NX, spec.NY)
	}
	if !(spec.X1 > spec.X0) || !(spec.Y1 > spec.Y0) {
		return nil, fmt.Errorf("mesh: Rect needs X1>X0 and Y1>Y0, got [%v,%v]x[%v,%v]",
			spec.X0, spec.X1, spec.Y0, spec.Y1)
	}
	nx, ny := spec.NX, spec.NY
	if err := checkSize("Rect", nx, ny); err != nil {
		return nil, err
	}
	nnd := (nx + 1) * (ny + 1)
	nel := nx * ny
	m := &Mesh{
		NOwnEl: nel, NOwnNd: nnd,
		ElNd:   make([][4]int32, 0, nel),
		X:      make([]float64, nnd),
		Y:      make([]float64, nnd),
		Region: make([]int32, 0, nel),
		BCs:    make([]BC, nnd),
	}
	dx := (spec.X1 - spec.X0) / float64(nx)
	dy := (spec.Y1 - spec.Y0) / float64(ny)
	node := func(i, j int) int32 { return int32(j*(nx+1) + i) }
	for j := 0; j <= ny; j++ {
		for i := 0; i <= nx; i++ {
			x := spec.X0 + float64(i)*dx
			y := spec.Y0 + float64(j)*dy
			if spec.Distort != nil {
				x, y = spec.Distort(x, y)
			}
			n := node(i, j)
			m.X[n], m.Y[n] = x, y
			if i == 0 {
				m.BCs[n] |= spec.Walls.Left
			}
			if i == nx {
				m.BCs[n] |= spec.Walls.Right
			}
			if j == 0 {
				m.BCs[n] |= spec.Walls.Bottom
			}
			if j == ny {
				m.BCs[n] |= spec.Walls.Top
			}
		}
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			m.ElNd = append(m.ElNd, [4]int32{node(i, j), node(i+1, j), node(i+1, j+1), node(i, j+1)})
			reg := 0
			if spec.RegionOf != nil {
				cx := spec.X0 + (float64(i)+0.5)*dx
				cy := spec.Y0 + (float64(j)+0.5)*dy
				reg = spec.RegionOf(cx, cy)
			}
			m.Region = append(m.Region, int32(reg))
		}
	}
	m.BuildConnectivity()
	if err := m.Check(); err != nil {
		return nil, err
	}
	return m, nil
}

// NewSaltzmannDistort is the classic Saltzmann mesh skew for a domain
// of height h: rows are sheared by amplitude·(h - y)/h·sin(πx), which
// leaves the top wall straight, skews interior lines, and produces the
// distorted mesh that excites hourglass modes.
func NewSaltzmannDistort(h, amplitude float64) Distort {
	return func(x, y float64) (float64, float64) {
		return x + amplitude*(h-y)/h*math.Sin(math.Pi*x), y
	}
}

// Clone returns a deep copy of the mesh (coordinates and connectivity).
func (m *Mesh) Clone() *Mesh {
	c := &Mesh{
		NEl: m.NEl, NNd: m.NNd,
		NOwnEl: m.NOwnEl, NOwnNd: m.NOwnNd,
	}
	c.ElNd = append([][4]int32(nil), m.ElNd...)
	c.ElEl = append([][4]int32(nil), m.ElEl...)
	c.Faces = append([]Face(nil), m.Faces...)
	c.NdElStart = append([]int32(nil), m.NdElStart...)
	c.NdCorner = append([]int32(nil), m.NdCorner...)
	c.X = append([]float64(nil), m.X...)
	c.Y = append([]float64(nil), m.Y...)
	c.Region = append([]int32(nil), m.Region...)
	c.BCs = append([]BC(nil), m.BCs...)
	if m.GlobalEl != nil {
		c.GlobalEl = append([]int32(nil), m.GlobalEl...)
	}
	if m.GlobalNd != nil {
		c.GlobalNd = append([]int32(nil), m.GlobalNd...)
	}
	return c
}

// View returns a mesh that shares m's element→node map and coordinates
// and holds nothing else: no adjacency, CSR, faces, regions, boundary
// flags or global ids. It is all a reader of the geometry needs (an
// x-profile, a VTK dump), and it keeps none of the rest alive.
func (m *Mesh) View() *Mesh {
	return &Mesh{
		NEl: m.NEl, NNd: m.NNd, NOwnEl: m.NEl, NOwnNd: m.NNd,
		ElNd: m.ElNd, X: m.X, Y: m.Y,
	}
}
