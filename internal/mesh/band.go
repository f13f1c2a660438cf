package mesh

// Band splits the owned entities of a partitioned mesh into the
// boundary band — entities whose kernels read ghost data — and the
// interior complement, which can be computed while halo messages are
// still in flight.
//
// A boundary *node* is an owned node whose element ring contains a
// ghost element: the node-gather acceleration (and any corner-force
// reduction) reads the ghost element's corner forces, so the node must
// wait for the element halo. A boundary *element* is an owned element
// with at least one ghost node: its geometry/EOS update reads the ghost
// node's exchanged velocity, so it must wait for the node halo. All
// four lists are ascending, so iterating them preserves the serial
// kernel order within each band — the property the bitwise-determinism
// guarantee of the overlapped schedule rests on (see DESIGN.md §10).
//
// On a serial (unpartitioned) mesh every owned entity is interior and
// the boundary lists are empty.
type Band struct {
	IntEls []int // owned elements with no ghost node
	BndEls []int // owned elements touching at least one ghost node
	IntNds []int // owned nodes whose element ring is fully owned
	BndNds []int // owned nodes with a ghost element in their ring
}

// BoundaryBand computes the interior/boundary split for this mesh. It
// is pure and depends only on connectivity and ownership, so drivers
// compute it once per partition and reuse it every step.
func (m *Mesh) BoundaryBand() *Band {
	b := &Band{}
	for e := 0; e < m.NOwnEl; e++ {
		ghost := false
		for _, n := range m.ElNd[e] {
			if n >= m.NOwnNd {
				ghost = true
				break
			}
		}
		if ghost {
			b.BndEls = append(b.BndEls, e)
		} else {
			b.IntEls = append(b.IntEls, e)
		}
	}
	for n := 0; n < m.NOwnNd; n++ {
		ghost := false
		for _, c := range m.CornersAround(n) {
			if c>>2 >= m.NOwnEl {
				ghost = true
				break
			}
		}
		if ghost {
			b.BndNds = append(b.BndNds, n)
		} else {
			b.IntNds = append(b.IntNds, n)
		}
	}
	return b
}
