package dump

import (
	"bufio"
	"fmt"
	"io"
)

// VTKField is one named field attached to a VTK dump.
type VTKField struct {
	Name string
	// Values has one entry per cell (cell-centred) or per point
	// (node-centred); which one is inferred from its length.
	Values []float64
}

// WriteVTK writes a legacy-format VTK unstructured-grid file of a quad
// mesh with cell and point data — loadable by ParaView/VisIt, the
// mini-app's stand-in for the reference code's visualisation dumps.
// x, y are node coordinates; elNd the per-element node quadruples.
func WriteVTK(w io.Writer, title string, x, y []float64, elNd [][4]int32, fields ...VTKField) error {
	if len(x) != len(y) {
		return fmt.Errorf("dump: coordinate lengths differ: %d vs %d", len(x), len(y))
	}
	nnd := len(x)
	nel := len(elNd)
	for e, nd := range elNd {
		for k := 0; k < 4; k++ {
			if nd[k] < 0 || int(nd[k]) >= nnd {
				return fmt.Errorf("dump: element %d references node %d outside [0,%d)", e, nd[k], nnd)
			}
		}
	}
	for _, f := range fields {
		if len(f.Values) != nel && len(f.Values) != nnd {
			return fmt.Errorf("dump: field %q has %d values, want %d (cells) or %d (points)",
				f.Name, len(f.Values), nel, nnd)
		}
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# vtk DataFile Version 3.0")
	fmt.Fprintln(bw, title)
	fmt.Fprintln(bw, "ASCII")
	fmt.Fprintln(bw, "DATASET UNSTRUCTURED_GRID")
	fmt.Fprintf(bw, "POINTS %d double\n", nnd)
	for n := 0; n < nnd; n++ {
		fmt.Fprintf(bw, "%.10g %.10g 0\n", x[n], y[n])
	}
	fmt.Fprintf(bw, "CELLS %d %d\n", nel, 5*nel)
	for _, nd := range elNd {
		fmt.Fprintf(bw, "4 %d %d %d %d\n", nd[0], nd[1], nd[2], nd[3])
	}
	fmt.Fprintf(bw, "CELL_TYPES %d\n", nel)
	for e := 0; e < nel; e++ {
		fmt.Fprintln(bw, 9) // VTK_QUAD
	}

	wroteCellHeader, wrotePointHeader := false, false
	for _, f := range fields {
		if len(f.Values) == nel {
			if !wroteCellHeader {
				fmt.Fprintf(bw, "CELL_DATA %d\n", nel)
				wroteCellHeader = true
			}
			writeScalars(bw, f)
		}
	}
	for _, f := range fields {
		if len(f.Values) == nnd && (nel != nnd || !wroteCellHeader) {
			if !wrotePointHeader {
				fmt.Fprintf(bw, "POINT_DATA %d\n", nnd)
				wrotePointHeader = true
			}
			writeScalars(bw, f)
		}
	}
	return bw.Flush()
}

func writeScalars(w io.Writer, f VTKField) {
	fmt.Fprintf(w, "SCALARS %s double 1\nLOOKUP_TABLE default\n", f.Name)
	for _, v := range f.Values {
		fmt.Fprintf(w, "%.10g\n", v)
	}
}
