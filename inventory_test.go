package bookleaf

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"bookleaf/internal/ale"
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

	"State.X":      {"primary", "geometry, forces, viscosity"},
	"State.Y":      {"primary", "as State.X"},
	"State.U":      {"primary", "viscosity, acceleration, move"},
	"State.V":      {"primary", "as State.U"},
	"State.NdMass": {"derived", "acceleration, kinetic energy; ring sum of CMass"},
	"State.Rho":    {"derived", "getpc, viscosity; Mass/Vol"},
	"State.Ein":    {"primary", "getpc, getein"},
	"State.P":      {"derived", "forces; EoS of Rho, Ein"},
	"State.Q":      {"derived", "forces, getein, getdt"},
	"State.Csq":    {"derived", "viscosity, getdt"},
	"State.Vol":    {"derived", "getrho, getdt, hourglass"},
	"State.Mass":   {"primary", "getrho, getein, audits"},
	"State.CMass":  {"primary", "sub-zonal pressures, NdMass; one record with psi"},
	"State.FX":     {"scratch", "acceleration gather, force halo; one record with FY"},
	"State.FY":     {"scratch", "as State.FX"},
	"State.fxnd":   {"scratch", "ScatterAcc ablation only: sized on first use"},
	"State.fynd":   {"scratch", "as State.fxnd"},
	"State.X0":     {"scratch", "start-of-step copy: corrector move, bench/layers.go"},
	"State.Y0":     {"scratch", "as State.X0"},
	"State.U0":     {"scratch", "start-of-step copy: limiter, FrozenVel, corrector"},
	"State.V0":     {"scratch", "as State.U0"},
	"State.UBar":   {"scratch", "time-centred velocity: geometry, work, velocity halo"},
	"State.VBar":   {"scratch", "as State.UBar"},
	"State.Ein0":   {"scratch", "start-of-step copy: corrector getein"},
	"State.facing": {"derived", "viscosity limiter; back-pointing side per ElEl entry, one byte"},
	"State.psi":    {"scratch", "limiter stored by the predictor, read by the fused corrector"},
}

// bytesPerElementMax is the ceiling TestBytesPerElement holds the
// mesh-plus-state footprint of Noh 100x100 to, in bytes per element:
// the measured total, so widening any array fails.
const bytesPerElementMax = 360

// remapInventory classifies every array an ale.Remapper holds, and the
// face list it has the mesh build, as the inventory above does for the
// mesh and the state. A Remapper field without a line here fails
// TestRemapperBytesPerElement.
var remapInventory = map[string]struct{ class, readBy string }{
	"Mesh.Faces": {"derived", "face flux and face gather; built by NewRemapper, 32-bit"},

	"Remapper.xT":       {"scratch", "target coordinates: Smoothed only, Eulerian aliases Mesh.X"},
	"Remapper.yT":       {"scratch", "as Remapper.xT"},
	"Remapper.cx":       {"scratch", "snapshot centroid: gradients, reconstruction, sub-faces"},
	"Remapper.cy":       {"scratch", "as Remapper.cx"},
	"Remapper.cRho":     {"scratch", "snapshot density: gradients, reconstruction"},
	"Remapper.cEin":     {"scratch", "snapshot energy: gradients, reconstruction"},
	"Remapper.gradRX":   {"scratch", "limited density gradient: reconstruction"},
	"Remapper.gradRY":   {"scratch", "as Remapper.gradRX"},
	"Remapper.gradEX":   {"scratch", "limited energy gradient: reconstruction"},
	"Remapper.gradEY":   {"scratch", "as Remapper.gradEX"},
	"Remapper.dCMass":   {"scratch", "corner-mass deltas: sub-faces, face gather, commit"},
	"Remapper.dEnergy":  {"scratch", "cell energy deltas: face gather, commit"},
	"Remapper.dPx":      {"scratch", "nodal momentum deltas, then momenta: momentum gather, velocities"},
	"Remapper.dPy":      {"scratch", "as Remapper.dPx"},
	"Remapper.adjStart": {"derived", "smoothing stencil: Smoothed only"},
	"Remapper.adjList":  {"derived", "as Remapper.adjStart"},
	"Remapper.efStart":  {"derived", "face gather; element→interior-face CSR offsets, 32-bit"},
	"Remapper.efList":   {"derived", "face gather; interior-face ids in ascending order per element, 32-bit"},
	"Remapper.eGain":    {"scratch", "staged sub-face gains: momentum gather"},
	"Remapper.ePx":      {"scratch", "staged sub-face momentum: momentum gather"},
	"Remapper.ePy":      {"scratch", "as Remapper.ePx"},
	"Remapper.fGain":    {"scratch", "staged half-face gains: face gather"},
	"Remapper.fMass":    {"scratch", "staged half-face mass: face gather"},
	"Remapper.fEn":      {"scratch", "staged half-face energy: face gather"},
	"Remapper.volT":     {"scratch", "target volumes: volume guard, commit"},
}

// remapBytesPerElementMax is the ceiling TestRemapperBytesPerElement
// holds an Eulerian remapper's footprint on Sod 100x100 to: the
// measured total.
const remapBytesPerElementMax = 374

// inventoried is one struct whose slice fields an inventory accounts
// for; only names in fields count, when fields is not nil.
type inventoried struct {
	prefix string
	v      any
	fields []string
}

// array is one slice's backing store [lo, hi), and the bytes of it not
// already counted under an array at a lower address (countOnce).
type array struct {
	name   string
	lo, hi uintptr
	bytes  uintptr
}

// slicesOf returns the backing of every slice field of the struct v
// points to, named prefix+field; only names in fields count, when
// fields is not nil.
func slicesOf(prefix string, v any, fields []string) []array {
	var arrays []array
	s := reflect.ValueOf(v).Elem()
	for i := 0; i < s.NumField(); i++ {
		f := s.Field(i)
		field := s.Type().Field(i).Name
		if f.Kind() != reflect.Slice || fields != nil && !slices.Contains(fields, field) {
			continue
		}
		lo := f.Pointer()
		arrays = append(arrays, array{name: prefix + field, lo: lo, hi: lo + uintptr(f.Cap())*f.Type().Elem().Size()})
	}
	return arrays
}

// countOnce counts each backing byte once, so that views of one
// interleaved record and arrays two owners share are not counted twice:
// in address order, an array adds what lies beyond everything counted
// so far. It sets every array's bytes and returns the total.
func countOnce(arrays []array) uintptr {
	// At one address the widest array goes first, so an allocation is
	// counted whole before the views that lie inside it.
	sort.SliceStable(arrays, func(i, j int) bool {
		return arrays[i].lo < arrays[j].lo || arrays[i].lo == arrays[j].lo && arrays[i].hi > arrays[j].hi
	})
	var covered, total uintptr
	for i := range arrays {
		a := &arrays[i]
		if a.hi > max(a.lo, covered) {
			a.bytes = a.hi - max(a.lo, covered)
			covered = a.hi
		}
		total += a.bytes
	}
	return total
}

// footprint is the inventory as a check: every slice field of the
// owners must be classified in table (and every table entry must be a
// field), and the distinct backing bytes of the fields (views of one
// interleaved record count once) are totalled per element and held to
// the ceiling. It returns the markdown table EXPERIMENTS.md carries.
func footprint(t *testing.T, table map[string]struct{ class, readBy string }, nel int, ceiling float64, owners ...inventoried) string {
	t.Helper()
	var arrays []array
	seen := map[string]bool{}
	for _, owner := range owners {
		for _, a := range slicesOf(owner.prefix, owner.v, owner.fields) {
			seen[a.name] = true
			if _, ok := table[a.name]; !ok {
				t.Errorf("%s is not in the inventory: classify it (primary, derived or scratch) and say who reads it", a.name)
			}
			arrays = append(arrays, a)
		}
	}
	for name := range table {
		if !seen[name] {
			t.Errorf("the inventory lists %s, which is no longer a field", name)
		}
	}
	total := countOnce(arrays)
	perEl := float64(total) / float64(nel)

	sort.SliceStable(arrays, func(i, j int) bool { return arrays[i].name < arrays[j].name })
	var b strings.Builder
	byClass := map[string]float64{}
	fmt.Fprintf(&b, "| array | class | B/el | read by |\n|---|---|---:|---|\n")
	for _, a := range arrays {
		e := table[a.name]
		byClass[e.class] += float64(a.bytes) / float64(nel)
		fmt.Fprintf(&b, "| `%s` | %s | %.2f | %s |\n", a.name, e.class, float64(a.bytes)/float64(nel), e.readBy)
	}
	fmt.Fprintf(&b, "| **total** | primary %.1f, derived %.1f, scratch %.1f | **%.2f** | ceiling %g |\n",
		byClass["primary"], byClass["derived"], byClass["scratch"], perEl, ceiling)
	if perEl > ceiling {
		t.Errorf("%.1f B/el, ceiling %g", perEl, ceiling)
	}
	return b.String()
}

// TestBytesPerElement is the memory inventory as a test: every slice
// field of mesh.Mesh and hydro.State for Noh 100x100 must be classified
// in the table above, and their distinct backing bytes must stay under
// the ceiling — so an added or widened array fails here before it
// reaches peak_rss_mb. go test -v prints the table EXPERIMENTS.md
// carries.
func TestBytesPerElement(t *testing.T) {
	p, err := setup.ByName("noh", 100, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewState()
	if err != nil {
		t.Fatal(err)
	}
	table := footprint(t, inventory, p.Mesh.NEl, bytesPerElementMax,
		inventoried{"Mesh.", p.Mesh, nil}, inventoried{"State.", s, nil})
	t.Logf("noh 100x100, %d elements, %d nodes:\n%s", p.Mesh.NEl, p.Mesh.NNd, table)
}

// TestRemapperBytesPerElement is the same inventory for what a remap
// adds to a run: every slice field of an Eulerian ale.Remapper on a Sod
// 100x100 box, and the face list NewRemapper has the mesh build. The
// Eulerian targets alias the mesh's coordinates and the smoothing
// stencil is Smoothed-only, so those rows read zero here.
func TestRemapperBytesPerElement(t *testing.T) {
	p, err := setup.ByName("sod", 100, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewState()
	if err != nil {
		t.Fatal(err)
	}
	r := ale.NewRemapper(ale.Options{Mode: ale.Eulerian}, s)
	table := footprint(t, remapInventory, p.Mesh.NEl, remapBytesPerElementMax,
		inventoried{"Mesh.", p.Mesh, []string{"Faces"}}, inventoried{"Remapper.", r, nil})
	t.Logf("eulerian remap of sod 100x100, %d elements, %d faces:\n%s", p.Mesh.NEl, len(p.Mesh.Faces), table)
}
