package bookleaf

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bookleaf/internal/setup"
)

// inventory classifies every array a Lagrangian run holds per element,
// corner or node: primary (defines the problem or its state; a
// checkpoint must carry it or its source), derived (a function of
// primaries, cached because a sweep reads it), scratch (rewritten in
// full before it is read, within one step). A field added to mesh.Mesh
// or hydro.State without a line here fails TestBytesPerElement.
var inventory = map[string]struct{ class, readBy string }{
	"Mesh.ElNd":      {"primary", "every element sweep"},
	"Mesh.ElEl":      {"derived", "viscosity stencil, facing table, remap gradients, BuildFaces"},
	"Mesh.Faces":     {"derived", "the remap only: nil until ale.NewRemapper"},
	"Mesh.NdElStart": {"derived", "acceleration gather, Split, remap node gathers"},
	"Mesh.NdCorner":  {"derived", "as NdElStart; element c>>2, corner c&3"},
	"Mesh.X":         {"primary", "generated coordinates: NewState, RCB, the Eulerian remap's target"},
	"Mesh.Y":         {"primary", "as Mesh.X"},
	"Mesh.Region":    {"primary", "EoS selection in getpc"},
	"Mesh.BCs":       {"primary", "acceleration boundary conditions"},
	"Mesh.GlobalEl":  {"primary", "gathers to canonical order: nil on a mesh never renumbered or cut"},
	"Mesh.GlobalNd":  {"primary", "as Mesh.GlobalEl"},

	"State.X":       {"primary", "geometry, forces, viscosity"},
	"State.Y":       {"primary", "as State.X"},
	"State.U":       {"primary", "viscosity, acceleration, move"},
	"State.V":       {"primary", "as State.U"},
	"State.NdMass":  {"derived", "acceleration, kinetic energy; ring sum of CMass"},
	"State.Rho":     {"derived", "getpc, viscosity; Mass/Vol"},
	"State.Ein":     {"primary", "getpc, getein"},
	"State.P":       {"derived", "forces; EoS of Rho, Ein"},
	"State.Q":       {"derived", "forces, getein, getdt"},
	"State.Csq":     {"derived", "viscosity, getdt"},
	"State.Vol":     {"derived", "getrho, getdt, hourglass"},
	"State.QEdge":   {"scratch", "EdgeQForces ablation only: sized on first use"},
	"State.Mass":    {"primary", "getrho, getein, audits"},
	"State.CMass":   {"primary", "sub-zonal pressures, NdMass; one record with psi"},
	"State.FX":      {"scratch", "acceleration gather, force halo; one record with FY"},
	"State.FY":      {"scratch", "as State.FX"},
	"State.fxnd":    {"scratch", "ScatterAcc ablation only: sized on first use"},
	"State.fynd":    {"scratch", "as State.fxnd"},
	"State.X0":      {"scratch", "start-of-step copy: corrector move, bench/layers.go"},
	"State.Y0":      {"scratch", "as State.X0"},
	"State.U0":      {"scratch", "start-of-step copy: limiter, FrozenVel, corrector"},
	"State.V0":      {"scratch", "as State.U0"},
	"State.UBar":    {"scratch", "time-centred velocity: geometry, work, velocity halo"},
	"State.VBar":    {"scratch", "as State.UBar"},
	"State.Ein0":    {"scratch", "start-of-step copy: corrector getein"},
	"State.facing":  {"derived", "viscosity limiter; back-pointing side per ElEl entry, one byte"},
	"State.psi":     {"scratch", "limiter stored by the predictor, read by the fused corrector"},
	"State.ndSlots": {"derived", "acceleration gather; NdCorner in the corner stride, 32-bit"},
}

// bytesPerElementMax is the ceiling TestBytesPerElement holds the
// mesh-plus-state footprint of Noh 100x100 to, in bytes per element.
const bytesPerElementMax = 455

// TestBytesPerElement is the memory inventory as a test: every slice
// field of mesh.Mesh and hydro.State for Noh 100x100 must be classified
// in the table above, and their distinct backing bytes (views of one
// interleaved record count once) must stay under the ceiling — so an
// added array fails here before it reaches peak_rss_mb. go test -v
// prints the table EXPERIMENTS.md carries.
func TestBytesPerElement(t *testing.T) {
	p, err := setup.ByName("noh", 100, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewState()
	if err != nil {
		t.Fatal(err)
	}
	type array struct {
		name   string
		lo, hi uintptr // backing store [lo, hi)
		bytes  uintptr // of it not already counted under an earlier array
	}
	var arrays []array
	seen := map[string]bool{}
	for _, owner := range []struct {
		prefix string
		v      reflect.Value
	}{{"Mesh.", reflect.ValueOf(p.Mesh).Elem()}, {"State.", reflect.ValueOf(s).Elem()}} {
		for i := 0; i < owner.v.NumField(); i++ {
			f := owner.v.Field(i)
			if f.Kind() != reflect.Slice {
				continue
			}
			name := owner.prefix + owner.v.Type().Field(i).Name
			seen[name] = true
			if _, ok := inventory[name]; !ok {
				t.Errorf("%s is not in the inventory: classify it (primary, derived or scratch) and say who reads it", name)
			}
			lo := f.Pointer()
			arrays = append(arrays, array{name: name, lo: lo, hi: lo + uintptr(f.Cap())*f.Type().Elem().Size()})
		}
	}
	for name := range inventory {
		if !seen[name] {
			t.Errorf("the inventory lists %s, which is no longer a field", name)
		}
	}

	// Count each backing byte once: in address order, an array adds what
	// lies beyond everything counted so far.
	sort.SliceStable(arrays, func(i, j int) bool { return arrays[i].lo < arrays[j].lo })
	var covered, total uintptr
	for i := range arrays {
		a := &arrays[i]
		if a.hi > max(a.lo, covered) {
			a.bytes = a.hi - max(a.lo, covered)
			covered = a.hi
		}
		total += a.bytes
	}
	nel := float64(p.Mesh.NEl)
	perEl := float64(total) / nel
	if perEl > bytesPerElementMax {
		t.Errorf("mesh + state hold %.1f B/el, ceiling %d", perEl, bytesPerElementMax)
	}

	sort.SliceStable(arrays, func(i, j int) bool { return arrays[i].name < arrays[j].name })
	var b strings.Builder
	byClass := map[string]float64{}
	fmt.Fprintf(&b, "| array | class | B/el | read by |\n|---|---|---:|---|\n")
	for _, a := range arrays {
		e := inventory[a.name]
		byClass[e.class] += float64(a.bytes) / nel
		fmt.Fprintf(&b, "| `%s` | %s | %.2f | %s |\n", a.name, e.class, float64(a.bytes)/nel, e.readBy)
	}
	fmt.Fprintf(&b, "| **total** | primary %.1f, derived %.1f, scratch %.1f | **%.2f** | ceiling %d |\n",
		byClass["primary"], byClass["derived"], byClass["scratch"], perEl, bytesPerElementMax)
	t.Logf("noh 100x100, %d elements, %d nodes:\n%s", p.Mesh.NEl, p.Mesh.NNd, b.String())
}
