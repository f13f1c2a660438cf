package mesh

// ElemFaces builds the element→face incidence in CSR form: the
// interior faces touching element e are list[start[e]:start[e+1]], in
// ascending face-index order. Boundary faces (Right < 0) carry no
// cross-element flux and are omitted.
//
// The ascending order is load-bearing for the parallel remap: the
// serial face-flux loop walks m.Faces in index order, so a per-element
// gather that replays each element's incident faces in the same order
// accumulates its corner-mass and energy deltas in the exact arithmetic
// sequence of the serial scatter (see DESIGN.md §11).
//
// Both arrays are int32, like the mesh's other indices: an element has
// at most four interior faces, so offsets and face indices stay within
// 4·NEl, which MaxElements keeps in an int32.
func (m *Mesh) ElemFaces() (start, list []int32) {
	start = make([]int32, m.NEl+1)
	for _, f := range m.Faces {
		if f.Right < 0 {
			continue
		}
		start[f.Left+1]++
		start[f.Right+1]++
	}
	for e := 0; e < m.NEl; e++ {
		start[e+1] += start[e]
	}
	list = make([]int32, start[m.NEl])
	fill := make([]int32, m.NEl)
	for i, f := range m.Faces {
		if f.Right < 0 {
			continue
		}
		list[start[f.Left]+fill[f.Left]] = int32(i)
		fill[f.Left]++
		list[start[f.Right]+fill[f.Right]] = int32(i)
		fill[f.Right]++
	}
	return start, list
}
