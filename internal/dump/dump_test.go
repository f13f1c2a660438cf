package dump

import (
	"strings"
	"testing"
)

func TestColumns(t *testing.T) {
	var b strings.Builder
	err := Columns(&b, []string{"x", "rho"}, []float64{0, 1}, []float64{2.5, 3.5})
	if err != nil {
		t.Fatal(err)
	}
	want := "x,rho\n0,2.5\n1,3.5\n"
	if b.String() != want {
		t.Fatalf("got %q want %q", b.String(), want)
	}
}

func TestColumnsErrors(t *testing.T) {
	var b strings.Builder
	if err := Columns(&b, []string{"x"}, []float64{1}, []float64{2}); err == nil {
		t.Fatal("name/column count mismatch accepted")
	}
	if err := Columns(&b, []string{"x", "y"}, []float64{1}, []float64{2, 3}); err == nil {
		t.Fatal("ragged columns accepted")
	}
	if err := Columns(&b, nil); err == nil {
		t.Fatal("empty columns accepted")
	}
}
