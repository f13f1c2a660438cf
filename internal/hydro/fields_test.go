package hydro

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestFieldTableCoversState: every per-entity array a State exports is
// a row of fieldTable, but for the corner-force record a step rebuilds
// before any kernel reads it; and the rows run in class order, which is
// what makes each memento a prefix of each slab.
func TestFieldTableCoversState(t *testing.T) {
	rows := map[string]bool{}
	for i, f := range fieldTable {
		rows[f.name] = true
		if i > 0 && f.class < fieldTable[i-1].class {
			t.Errorf("row %q (class %d) follows a row of class %d", f.name, f.class, fieldTable[i-1].class)
		}
	}
	st := reflect.TypeOf(State{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if !f.IsExported() || f.Type != reflect.TypeOf([]float64(nil)) || f.Name == "FX" || f.Name == "FY" {
			continue
		}
		if !rows[strings.ToLower(f.Name)] {
			t.Errorf("State.%s has no row in fieldTable", f.Name)
		}
	}
}

// rowPattern is the value row i of the table holds at slot j in the
// round trips: distinct per row and per slot.
func rowPattern(i, j int) float64 { return float64(i+1)*1e7 + float64(j) + 0.25 }

// fillRows sets slot j of row i of s to val(i, j), a corner row's
// slots by their CMass half, and slot j of psi to val(-1, j).
func fillRows(s *State, val func(i, j int) float64) {
	for i, f := range fieldTable {
		a := *f.field(s)
		for j := range a {
			if f.ent != corner || j%cornerStride < 4 {
				a[j] = val(i, j)
			}
		}
	}
	for e := 0; e < s.Mesh.NEl; e++ {
		for k := 0; k < 4; k++ {
			s.psi[cornerStride*e+k] = val(-1, cornerStride*e+k)
		}
	}
}

// TestMementoRoundTripsEveryRow: Save, overwrite, Load gives back every
// evolving row bitwise, and every remap-written row iff the memento
// carries masses; it leaves the scratch rows and psi as it finds them.
func TestMementoRoundTripsEveryRow(t *testing.T) {
	for _, masses := range []bool{false, true} {
		t.Run(fmt.Sprintf("masses=%v", masses), func(t *testing.T) {
			s := evolved(t)
			fillRows(s, rowPattern)
			s.Time, s.DtPrev, s.StepCount, s.ExternalWork, s.FloorEnergy = 1, 2, 3, 4, 5
			mem := Memento{Masses: masses}
			s.Save(&mem)
			fillRows(s, func(int, int) float64 { return -1 })
			s.Time, s.DtPrev, s.StepCount, s.ExternalWork, s.FloorEnergy = 0, 0, 0, 0, 0
			s.Load(&mem)

			for i, f := range fieldTable {
				back := f.class == evolving || f.class == remapWritten && masses
				a := *f.field(s)
				for j := range a {
					if f.ent == corner && j%cornerStride >= 4 {
						continue
					}
					want := -1.0
					if back {
						want = rowPattern(i, j)
					}
					if math.Float64bits(a[j]) != math.Float64bits(want) {
						t.Fatalf("%s[%d] = %v after Load, want %v", f.name, j, a[j], want)
					}
				}
			}
			for e := 0; e < s.Mesh.NEl; e++ {
				for k := 0; k < 4; k++ {
					if v := s.psi[cornerStride*e+k]; v != -1 {
						t.Fatalf("Load wrote psi of element %d edge %d: %v", e, k, v)
					}
				}
			}
			if s.Time != 1 || s.DtPrev != 2 || s.StepCount != 3 || s.ExternalWork != 4 || s.FloorEnergy != 5 {
				t.Errorf("clock %v/%v/%d/%v/%v after Load", s.Time, s.DtPrev, s.StepCount, s.ExternalWork, s.FloorEnergy)
			}
		})
	}
}

// TestMementoSize pins what a rollback copy costs on a 64² state, in
// bytes per element: 81.0 for a Lagrangian memento (six element and
// four node rows; 80 B/el of state, the rest the 65² nodes over 64²
// elements and 0.04 of cache-line padding between node rows), and
// 129.3 with the masses (the exact 129.31 is 129.26 of state and 0.05
// of padding). Before the field table a remap memento copied the whole
// CMass|psi record, 161.3.
func TestMementoSize(t *testing.T) {
	m := boxMesh(t, 64, 64)
	s := uniformState(t, m, 1, 1, HGSubzonal)
	for _, c := range []struct {
		masses bool
		want   float64
	}{{false, 81.0}, {true, 129.3}} {
		mem := Memento{Masses: c.masses}
		s.Save(&mem)
		perEl := float64(8*(len(mem.el)+len(mem.nd)+len(mem.cMass))) / float64(m.NEl)
		t.Logf("masses=%v: %.3f B/el", c.masses, perEl)
		if got := math.Round(perEl*10) / 10; got != c.want {
			t.Errorf("masses=%v: memento is %.3f B/el, want %.1f", c.masses, perEl, c.want)
		}
	}
}

// TestSlabAlignment: every slab row and every corner record (FX and
// CMass at cornerStride*e) starts on a 64-byte cache line, the layout
// DESIGN.md §15's one-line-per-record count rests on, on a mesh whose
// arrays are small heap objects and on one whose arrays pass 32 KiB.
func TestSlabAlignment(t *testing.T) {
	for _, n := range []int{16, 80} {
		m := boxMesh(t, n, n)
		if small := 8*m.NNd < 32<<10; small != (n == 16) {
			t.Fatalf("%d² mesh: node rows of %d B do not straddle 32 KiB as meant", n, 8*m.NNd)
		}
		s := uniformState(t, m, 1, 1, HGSubzonal)
		off := func(a []float64, i int) uintptr { return uintptr(unsafe.Pointer(&a[i])) % 64 }
		for _, f := range fieldTable {
			if a := *f.field(s); off(a, 0) != 0 {
				t.Errorf("%d²: row %s starts %d B into a line", n, f.name, off(a, 0))
			}
		}
		for e := 0; e < m.NEl; e++ {
			if off(s.FX, cornerStride*e) != 0 || off(s.CMass, cornerStride*e) != 0 {
				t.Fatalf("%d²: corner record of element %d starts %d/%d B into a line", n, e,
					off(s.FX, cornerStride*e), off(s.CMass, cornerStride*e))
			}
		}
	}
}
