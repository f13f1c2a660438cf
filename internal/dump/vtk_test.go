package dump

import (
	"strings"
	"testing"
)

func unitQuadMesh() ([]float64, []float64, [][4]int32) {
	x := []float64{0, 1, 2, 0, 1, 2}
	y := []float64{0, 0, 0, 1, 1, 1}
	el := [][4]int32{{0, 1, 4, 3}, {1, 2, 5, 4}}
	return x, y, el
}

func TestWriteVTKStructure(t *testing.T) {
	x, y, el := unitQuadMesh()
	var b strings.Builder
	err := WriteVTK(&b, "test dump", x, y, el,
		VTKField{Name: "rho", Values: []float64{1.5, 2.5}},
		VTKField{Name: "u", Values: []float64{0, 1, 2, 3, 4, 5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# vtk DataFile Version 3.0",
		"DATASET UNSTRUCTURED_GRID",
		"POINTS 6 double",
		"CELLS 2 10",
		"4 0 1 4 3",
		"CELL_TYPES 2",
		"CELL_DATA 2",
		"SCALARS rho double 1",
		"POINT_DATA 6",
		"SCALARS u double 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("VTK output missing %q:\n%s", want, out)
		}
	}
	// Both quads typed VTK_QUAD (9).
	if !strings.Contains(out, "CELL_TYPES 2\n9\n9\n") {
		t.Fatalf("cell types wrong:\n%s", out)
	}
}

func TestWriteVTKValidation(t *testing.T) {
	x, y, el := unitQuadMesh()
	var b strings.Builder
	if err := WriteVTK(&b, "t", x, y[:3], el); err == nil {
		t.Fatal("mismatched coords accepted")
	}
	bad := [][4]int32{{0, 1, 99, 3}}
	if err := WriteVTK(&b, "t", x, y, bad); err == nil {
		t.Fatal("bad node index accepted")
	}
	if err := WriteVTK(&b, "t", x, y, el, VTKField{Name: "z", Values: []float64{1}}); err == nil {
		t.Fatal("wrong-length field accepted")
	}
}

func TestWriteVTKNoFields(t *testing.T) {
	x, y, el := unitQuadMesh()
	var b strings.Builder
	if err := WriteVTK(&b, "bare", x, y, el); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "CELL_DATA") {
		t.Fatal("unexpected data section")
	}
}
