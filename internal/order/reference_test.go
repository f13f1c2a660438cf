package order

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"bookleaf/internal/mesh"
)

// refHilbertOrder and refRCMOrder are the closure-sorted orderings
// (sort.SliceStable over a key array; sort.Slice per BFS visit) that
// hilbertOrder and rcmOrder replaced, kept verbatim as the references
// the packed-key sort and the insertion sort must reproduce.
func refHilbertOrder(m *mesh.Mesh) []int {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for n := 0; n < m.NNd; n++ {
		minX, maxX = math.Min(minX, m.X[n]), math.Max(maxX, m.X[n])
		minY, maxY = math.Min(minY, m.Y[n]), math.Max(maxY, m.Y[n])
	}
	sx, sy := maxX-minX, maxY-minY
	if sx <= 0 {
		sx = 1
	}
	if sy <= 0 {
		sy = 1
	}
	const side = 1 << hilbertBits
	keys := make([]uint64, m.NEl)
	for e := 0; e < m.NEl; e++ {
		var cx, cy float64
		for k := 0; k < 4; k++ {
			n := m.ElNd[e][k]
			cx += m.X[n]
			cy += m.Y[n]
		}
		cx, cy = cx/4, cy/4
		ix := int((cx - minX) / sx * (side - 1))
		iy := int((cy - minY) / sy * (side - 1))
		keys[e] = hilbertD(ix, iy)
	}
	el := make([]int, m.NEl)
	for i := range el {
		el[i] = i
	}
	sort.SliceStable(el, func(a, b int) bool {
		if keys[el[a]] != keys[el[b]] {
			return keys[el[a]] < keys[el[b]]
		}
		return el[a] < el[b]
	})
	return el
}

func refRCMOrder(m *mesh.Mesh) []int {
	deg := make([]int, m.NEl)
	for e := 0; e < m.NEl; e++ {
		for k := 0; k < 4; k++ {
			if m.ElEl[e][k] >= 0 {
				deg[e]++
			}
		}
	}
	visited := make([]bool, m.NEl)
	order := make([]int, 0, m.NEl)
	queue := make([]int, 0, m.NEl)
	var nbrs [4]int
	for len(order) < m.NEl {
		// Seed: the unvisited element of minimum degree, lowest index
		// on ties — a cheap peripheral-vertex heuristic.
		seed, seedDeg := -1, 5
		for e := 0; e < m.NEl; e++ {
			if !visited[e] && deg[e] < seedDeg {
				seed, seedDeg = e, deg[e]
			}
		}
		visited[seed] = true
		queue = append(queue[:0], seed)
		for len(queue) > 0 {
			e := queue[0]
			queue = queue[1:]
			order = append(order, e)
			nn := 0
			for k := 0; k < 4; k++ {
				if nb := int(m.ElEl[e][k]); nb >= 0 && !visited[nb] {
					visited[nb] = true
					nbrs[nn] = nb
					nn++
				}
			}
			sub := nbrs[:nn]
			sort.Slice(sub, func(a, b int) bool {
				if deg[sub[a]] != deg[sub[b]] {
					return deg[sub[a]] < deg[sub[b]]
				}
				return sub[a] < sub[b]
			})
			queue = append(queue, sub...)
		}
	}
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// TestOrdersMatchReference: the element orders are those of the
// closure-sorted references on generated, skewed and curved meshes.
func TestOrdersMatchReference(t *testing.T) {
	disc, err := mesh.QuarterDisc(mesh.QuarterDiscSpec{N: 24, R: 1, AxisX: mesh.FixU, AxisY: mesh.FixV})
	if err != nil {
		t.Fatal(err)
	}
	skew, err := mesh.Rect(mesh.RectSpec{
		NX: 100, NY: 10, X0: 0, X1: 1, Y0: 0, Y1: 0.1,
		Distort: mesh.NewSaltzmannDistort(0.1, 0.01), Walls: mesh.DefaultWalls(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*mesh.Mesh{
		"rect1x1": rect(t, 1, 1), "rect1x7": rect(t, 1, 7), "rect12x11": rect(t, 12, 11),
		"rect1024x32": rect(t, 1024, 32), "disc24": disc, "saltzmann": skew,
	}
	for name, m := range cases {
		if got, want := hilbertOrder(m), refHilbertOrder(m); !slices.Equal(got, want) {
			t.Errorf("%s: Hilbert order differs from the stable-sort reference", name)
		}
		if got, want := rcmOrder(m), refRCMOrder(m); !slices.Equal(got, want) {
			t.Errorf("%s: RCM order differs from the sort.Slice reference", name)
		}
	}
}

// TestReorderedMeshGetsEulerCheck: the mesh apply validates carries
// GlobalEl, and must still get the topology check — a reordered mesh
// with an interior element missing has V - E + F = 0.
func TestReorderedMeshGetsEulerCheck(t *testing.T) {
	r, err := Reorder(rect(t, 16, 8), Hilbert)
	if err != nil {
		t.Fatal(err)
	}
	drop := -1
	for e := 0; e < r.NEl && drop < 0; e++ {
		if nb := r.ElEl[e]; nb[0] >= 0 && nb[1] >= 0 && nb[2] >= 0 && nb[3] >= 0 {
			drop = e
		}
	}
	r.ElNd = slices.Delete(r.ElNd, drop, drop+1)
	r.Region = slices.Delete(r.Region, drop, drop+1)
	r.GlobalEl = slices.Delete(r.GlobalEl, drop, drop+1)
	r.NOwnEl = len(r.ElNd)
	r.BuildConnectivity()
	err = r.Check()
	if err == nil || !strings.Contains(err.Error(), "V-E+F") {
		t.Fatalf("Check on a reordered mesh with a hole: %v, want the Euler characteristic reported", err)
	}
}

func BenchmarkReorderHilbert(b *testing.B) {
	m, err := mesh.Rect(mesh.RectSpec{NX: 1024, NY: 32, X0: 0, X1: 1, Y0: 0, Y1: 0.03125, Walls: mesh.DefaultWalls()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reorder(m, Hilbert); err != nil {
			b.Fatal(err)
		}
	}
}
