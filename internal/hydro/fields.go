package hydro

import (
	"fmt"
	"unsafe"
)

// entity is what a field-table row is indexed by: an element or node
// row is a row of that entity's slab, a corner row the CMass half of an
// interleaved corner record (cornerStride).
type entity uint8

const (
	element entity = iota
	node
	corner
)

// class is who writes a row, and so who keeps a copy of it: evolving
// rows move every step, and every memento and dump carries them;
// remapWritten rows only the remap writes, and a memento carries them
// when its Masses field is set, a dump always; scratch rows a step
// rebuilds before reading, and nothing saves them.
type class uint8

const (
	evolving class = iota
	remapWritten
	scratch
)

// fieldTable lists every per-entity array of a State once, in class
// order. NewState backs the element rows with one slab and the node
// rows with another, in table order, so each slab holds its evolving
// rows first, then its remap-written row, then its scratch: a memento
// is a prefix of each slab, and a dump is every row that is not
// scratch, keyed by name. The corner row stays in its interleaved
// CMass|psi record (cornerStride).
var fieldTable = [...]struct {
	name  string
	ent   entity
	class class
	field func(*State) *[]float64
}{
	{"x", node, evolving, func(s *State) *[]float64 { return &s.X }},
	{"y", node, evolving, func(s *State) *[]float64 { return &s.Y }},
	{"u", node, evolving, func(s *State) *[]float64 { return &s.U }},
	{"v", node, evolving, func(s *State) *[]float64 { return &s.V }},
	{"rho", element, evolving, func(s *State) *[]float64 { return &s.Rho }},
	{"ein", element, evolving, func(s *State) *[]float64 { return &s.Ein }},
	{"p", element, evolving, func(s *State) *[]float64 { return &s.P }},
	{"q", element, evolving, func(s *State) *[]float64 { return &s.Q }},
	{"csq", element, evolving, func(s *State) *[]float64 { return &s.Csq }},
	{"vol", element, evolving, func(s *State) *[]float64 { return &s.Vol }},
	{"mass", element, remapWritten, func(s *State) *[]float64 { return &s.Mass }},
	{"ndmass", node, remapWritten, func(s *State) *[]float64 { return &s.NdMass }},
	{"cmass", corner, remapWritten, func(s *State) *[]float64 { return &s.CMass }},
	{"x0", node, scratch, func(s *State) *[]float64 { return &s.X0 }},
	{"y0", node, scratch, func(s *State) *[]float64 { return &s.Y0 }},
	{"u0", node, scratch, func(s *State) *[]float64 { return &s.U0 }},
	{"v0", node, scratch, func(s *State) *[]float64 { return &s.V0 }},
	{"ubar", node, scratch, func(s *State) *[]float64 { return &s.UBar }},
	{"vbar", node, scratch, func(s *State) *[]float64 { return &s.VBar }},
	{"ein0", element, scratch, func(s *State) *[]float64 { return &s.Ein0 }},
}

// rowsUpTo counts the table's rows of ent whose class is at most c: the
// slab rows a memento that keeps classes up to c copies.
func rowsUpTo(ent entity, c class) int {
	k := 0
	for _, f := range fieldTable {
		if f.ent == ent && f.class <= c {
			k++
		}
	}
	return k
}

// lineFloats is the float64s in a 64-byte cache line.
const lineFloats = 8

// aligned returns n zeroed float64s starting on a 64-byte cache line.
// The Go heap never moves an object, so the alignment taken here holds
// for the slice's life.
func aligned(n int) []float64 {
	raw := make([]float64, n+lineFloats-1)
	off := int(-uintptr(unsafe.Pointer(unsafe.SliceData(raw))) % (8 * lineFloats) / 8)
	return raw[off : off+n : off+n]
}

// A slab backs the rows of one entity with one allocation: row i is
// buf[i*stride : i*stride+n], the stride n rounded up to a whole cache
// line, so every row starts on one.
type slab struct {
	buf       []float64
	n, stride int
}

func newSlab(ent entity, n int) slab {
	stride := (n + lineFloats - 1) / lineFloats * lineFloats
	return slab{buf: aligned(rowsUpTo(ent, scratch) * stride), n: n, stride: stride}
}

func (b slab) row(i int) []float64 {
	lo := i * b.stride
	return b.buf[lo : lo+b.n : lo+b.n]
}

// prefix is rows [0, k), k ≥ 1: the padding between them, not the last
// row's.
func (b slab) prefix(k int) []float64 { return b.buf[:(k-1)*b.stride+b.n] }

// DumpField is a row of the field table a restart dump carries: every
// row but the step scratch, Len values in global order — one per node,
// one per element, or four per element for the corner row.
type DumpField struct {
	Name string
	Len  int
}

// DumpFields lists the rows a restart dump of a mesh with nel elements
// and nnd nodes carries, in table order.
func DumpFields(nel, nnd int) []DumpField {
	lens := [...]int{element: nel, node: nnd, corner: 4 * nel}
	var out []DumpField
	for _, f := range fieldTable {
		if f.class != scratch {
			out = append(out, DumpField{Name: f.name, Len: lens[f.ent]})
		}
	}
	return out
}

// ScatterOwned writes row name of every owned entity into its global
// slot of dst, four values per element for the corner row: the
// owned→global scatter of a dump and of a run's result. Ranks' owned
// entities are disjoint, so every rank of a fleet may scatter into one
// dst.
func (s *State) ScatterOwned(name string, dst []float64) error { return s.mapRow(name, dst, true) }

// Restrict fills row name of every local entity, owned and ghost, from
// its global slot of src: ScatterOwned's inverse. Ghosts receive
// exactly their owner's values, so no halo refresh follows.
func (s *State) Restrict(name string, src []float64) error { return s.mapRow(name, src, false) }

// mapRow copies dumped row name between s and the global-order g: out
// to g from the owned entities, or in from g to every local entity.
func (s *State) mapRow(name string, g []float64, out bool) error {
	for _, f := range fieldTable {
		if f.name != name || f.class == scratch {
			continue
		}
		m, a := s.Mesh, *f.field(s)
		n, owned, gid, w := m.NEl, m.NOwnEl, m.GlobalEl, 1
		switch f.ent {
		case node:
			n, owned, gid = m.NNd, m.NOwnNd, m.GlobalNd
		case corner:
			w = 4
		}
		if out {
			n = owned
		}
		for i := 0; i < n; i++ {
			gi := i // a mesh without global ids is the global mesh
			if gid != nil {
				gi = int(gid[i])
			}
			if gi < 0 || (gi+1)*w > len(g) {
				return fmt.Errorf("hydro: %s of local entity %d maps to global %d outside [0,%d)", name, i, gi, len(g)/w)
			}
			switch {
			case w == 1 && out:
				g[gi] = a[i]
			case w == 1:
				a[i] = g[gi]
			case out:
				copy(g[4*gi:4*gi+4], a[cornerStride*i:])
			default:
				copy(a[cornerStride*i:cornerStride*i+4], g[4*gi:])
			}
		}
		return nil
	}
	return fmt.Errorf("hydro: no dumped field %q", name)
}
