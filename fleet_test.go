package bookleaf

import (
	"fmt"
	"reflect"
	"testing"

	"bookleaf/internal/mesh"
	"bookleaf/internal/order"
	"bookleaf/internal/partition"
	"bookleaf/internal/setup"
)

// TestFleetConstructionMatchesSerial: the per-rank half of set-up runs
// on one goroutine per rank (Split's local connectivity, newSlots). Its
// output must be what building rank after rank gives, and the race
// detector must see no shared write (make tier2-order runs this with
// -race -count=10).
func TestFleetConstructionMatchesSerial(t *testing.T) {
	p, err := setup.ByName("noh", 24, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mesh, err = order.Reorder(p.Mesh, order.Hilbert); err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 7} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			part, err := partition.RCBMesh(p.Mesh, ranks)
			if err != nil {
				t.Fatal(err)
			}
			subs, err := partition.Split(p.Mesh, part, ranks)
			if err != nil {
				t.Fatal(err)
			}
			for _, sm := range subs {
				lm := sm.M
				serial := &mesh.Mesh{ElNd: lm.ElNd, X: lm.X, Y: lm.Y, NOwnEl: lm.NOwnEl, NOwnNd: lm.NOwnNd}
				serial.BuildConnectivity()
				if !reflect.DeepEqual(serial.ElEl, lm.ElEl) || !reflect.DeepEqual(serial.Faces, lm.Faces) ||
					!reflect.DeepEqual(serial.NdElStart, lm.NdElStart) || !reflect.DeepEqual(serial.NdCorner, lm.NdCorner) {
					t.Fatalf("rank %d: concurrently derived connectivity differs from a serial build", sm.Rank)
				}
			}

			pr := &parRun{cfg: Config{Problem: "noh", Ranks: ranks, Threads: 1}, prob: p}
			mark := func(sl *rankSlot) error { sl.lastCk = 100 + sl.id; return nil }
			fleet, err := pr.newSlots(subs, mark)
			if err != nil {
				t.Fatal(err)
			}
			pr.slots = fleet
			defer pr.closeSlots()
			for i, sub := range subs {
				want, err := pr.newSlot(i, sub)
				if err != nil {
					t.Fatal(err)
				}
				want.s.Pool.Close()
				got := fleet[i]
				if got.id != i || got.sub != sub || got.lastCk != 100+i {
					t.Fatalf("slot %d: id %d, lastCk %d, or the wrong sub-mesh", i, got.id, got.lastCk)
				}
				for name, f := range map[string][2][]float64{
					"rho": {got.s.Rho, want.s.Rho}, "ein": {got.s.Ein, want.s.Ein}, "p": {got.s.P, want.s.P},
					"mass": {got.s.Mass, want.s.Mass}, "ndmass": {got.s.NdMass, want.s.NdMass}, "cmass": {got.s.CMass, want.s.CMass},
					"u": {got.s.U, want.s.U}, "v": {got.s.V, want.s.V}, "x": {got.s.X, want.s.X}, "y": {got.s.Y, want.s.Y},
				} {
					if !reflect.DeepEqual(f[0], f[1]) {
						t.Fatalf("slot %d: %s differs from the serially built slot", i, name)
					}
				}
			}
		})
	}
}
