package mesh

import (
	"fmt"
	"math"
)

// QuarterDiscSpec describes a quarter-disc mesh of radius R generated
// by the elliptic square-to-disc mapping
//
//	x = u √(1 - v²/2),  y = v √(1 - u²/2),  (u,v) ∈ [0,1]²
//
// which produces smooth, non-degenerate quads: Cartesian-like near the
// origin and conforming to the circular arc at r = R. Radial problems
// (Noh) run on it with the outer boundary exactly on the physical
// r = R circle — the mesh-geometry counterpart to the paper's remark
// that Sedov is run on a Cartesian mesh precisely to exercise
// non-mesh-aligned shocks.
type QuarterDiscSpec struct {
	// N is the cell count along each logical direction.
	N int
	// R is the disc radius.
	R float64
	// Walls: Axes applies to the x=0 and y=0 edges (default
	// reflective); Arc to the curved outer boundary.
	AxisX, AxisY, Arc BC
}

// QuarterDisc generates the quarter-disc mesh.
func QuarterDisc(spec QuarterDiscSpec) (*Mesh, error) {
	if spec.N < 1 {
		return nil, fmt.Errorf("mesh: QuarterDisc needs N >= 1, got %d", spec.N)
	}
	if spec.R <= 0 {
		return nil, fmt.Errorf("mesh: QuarterDisc needs R > 0, got %v", spec.R)
	}
	n := spec.N
	if err := checkSize("QuarterDisc", n, n); err != nil {
		return nil, err
	}
	nnd := (n + 1) * (n + 1)
	m := &Mesh{
		NOwnEl: n * n, NOwnNd: nnd,
		ElNd:   make([][4]int32, 0, n*n),
		X:      make([]float64, nnd),
		Y:      make([]float64, nnd),
		Region: make([]int32, 0, n*n),
		BCs:    make([]BC, nnd),
	}
	node := func(i, j int) int32 { return int32(j*(n+1) + i) }
	for j := 0; j <= n; j++ {
		for i := 0; i <= n; i++ {
			u := float64(i) / float64(n)
			v := float64(j) / float64(n)
			x := u * math.Sqrt(1-v*v/2)
			y := v * math.Sqrt(1-u*u/2)
			id := node(i, j)
			m.X[id] = spec.R * x
			m.Y[id] = spec.R * y
			if i == 0 {
				m.BCs[id] |= spec.AxisX
			}
			if j == 0 {
				m.BCs[id] |= spec.AxisY
			}
			// The logical outer edges u=1 and v=1 both land on the
			// circular arc.
			if i == n || j == n {
				m.BCs[id] |= spec.Arc
			}
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			m.ElNd = append(m.ElNd, [4]int32{node(i, j), node(i+1, j), node(i+1, j+1), node(i, j+1)})
			m.Region = append(m.Region, 0)
		}
	}
	m.BuildConnectivity()
	if err := m.Check(); err != nil {
		return nil, err
	}
	return m, nil
}
