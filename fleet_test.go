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
				// Nobody has asked either side for faces yet; derive them
				// on both so the comparison is of two lists, not two nils.
				serial.BuildFaces()
				lm.BuildFaces()
				if len(lm.Faces) == 0 || !reflect.DeepEqual(serial.ElEl, lm.ElEl) || !reflect.DeepEqual(serial.Faces, lm.Faces) ||
					!reflect.DeepEqual(serial.NdElStart, lm.NdElStart) || !reflect.DeepEqual(serial.NdCorner, lm.NdCorner) {
					t.Fatalf("rank %d: concurrently derived connectivity differs from a serial build", sm.Rank)
				}
			}

			pr := &driver{cfg: Config{Problem: "noh", Ranks: ranks, Threads: 1}, prob: p}
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

// TestFacesBelongToTheRemap: the face list is built by the first
// remapper of a rank's mesh and by nobody else, so a Lagrangian run ends
// with none on any rank mesh, and an ALE run with exactly one — asking
// again leaves the same backing array. The same configuration bit
// decides whether the rank's mementos carry masses.
func TestFacesBelongToTheRemap(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		for _, ale := range []string{"", "eulerian"} {
			t.Run(fmt.Sprintf("ranks=%d/ale=%q", ranks, ale), func(t *testing.T) {
				cfg := Config{Problem: "sod", NX: 32, NY: 4, Ranks: ranks, ALE: ale, MaxSteps: 4}
				if err := cfg.normalise(); err != nil {
					t.Fatal(err)
				}
				d, err := newDriver(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer d.closeSlots()
				if _, err := d.run(); err != nil {
					t.Fatal(err)
				}
				for _, sl := range d.slots {
					if remaps := ale != ""; sl.roll.Masses != remaps || sl.stepStart.Masses != remaps {
						t.Errorf("rank %d: mementos carry masses %v/%v in a run that remaps: %v", sl.id, sl.roll.Masses, sl.stepStart.Masses, remaps)
					}
					m := sl.sub.M
					if ale == "" {
						if m.Faces != nil {
							t.Errorf("rank %d: a Lagrangian run built %d faces", sl.id, len(m.Faces))
						}
						continue
					}
					if len(m.Faces) == 0 {
						t.Fatalf("rank %d: the remap ran without a face list", sl.id)
					}
					first := &m.Faces[0]
					if m.BuildFaces(); &m.Faces[0] != first {
						t.Errorf("rank %d: a second BuildFaces built a second list", sl.id)
					}
				}
			})
		}
	}
}

// TestOneRankFleetIsTheMesh: a one-rank run is the rank loop over a
// fleet of one whose rank 0 is the problem mesh itself — no Split, no
// copy — with the audit anchors read off its fresh state, bitwise what
// InitialAudit's separate pass would give, and nothing to send.
func TestOneRankFleetIsTheMesh(t *testing.T) {
	for _, problem := range []string{"sod", "noh", "sedov", "saltzmann", "waterair", "nohdisc"} {
		for _, reorder := range []string{"none", "hilbert", "rcm"} {
			t.Run(problem+"/"+reorder, func(t *testing.T) {
				cfg := Config{Problem: problem, NX: 12, NY: 10, Reorder: reorder, MaxSteps: 3}
				if err := cfg.normalise(); err != nil {
					t.Fatal(err)
				}
				d, err := newDriver(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer d.closeSlots()
				if len(d.slots) != 1 || d.slots[0].sub.M != d.prob.Mesh {
					t.Fatalf("%d slots; rank 0's mesh is not the problem mesh", len(d.slots))
				}
				// The run dropped the problem's initial fields once rank 0's
				// state held them; a fresh problem's, audited on the same
				// renumbered mesh, are the anchors to compare with.
				ref, err := setup.ByName(problem, cfg.NX, cfg.NY, cfg.SedovEnergy)
				if err != nil {
					t.Fatal(err)
				}
				ref.Mesh = d.prob.Mesh
				e0, mass0, err := ref.InitialAudit()
				if err != nil {
					t.Fatal(err)
				}
				if d.e0 != e0 || d.mass0 != mass0 {
					t.Fatalf("audit anchors (%x, %x) are not InitialAudit's (%x, %x)", d.e0, d.mass0, e0, mass0)
				}
				res, err := d.run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Steps != 3 || res.E0 != e0 || res.Mass0 != mass0 {
					t.Fatalf("steps %d, E0 %x, Mass0 %x", res.Steps, res.E0, res.Mass0)
				}
				if res.CommMsgs != 0 || res.CommWords != 0 {
					t.Fatalf("a fleet of one sent %d messages, %d words", res.CommMsgs, res.CommWords)
				}
			})
		}
	}
}

// TestResultMeshIsACanonicalView: Result.Mesh is a view of the canonical
// mesh, its element→node map and coordinates and nothing else, taken
// before the reorder. So a reordered run keeps no canonical adjacency,
// CSR or regions alive from the moment the reorder returns; the view
// is in canonical numbering (every rank mesh's GlobalEl/GlobalNd map
// onto it, which is how the result gathers); and an unreordered run's
// view shares the mesh rank 0 of a fleet of one steps on instead of
// copying it.
func TestResultMeshIsACanonicalView(t *testing.T) {
	for _, reorder := range []string{"hilbert", "none"} {
		t.Run(reorder, func(t *testing.T) {
			for _, ranks := range []int{1, 2} {
				t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
					cfg := Config{Problem: "sod", NX: 32, NY: 8, Ranks: ranks, Reorder: reorder, MaxSteps: 3}
					if err := cfg.normalise(); err != nil {
						t.Fatal(err)
					}
					d, err := newDriver(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer d.closeSlots()
					v := d.canon
					if v.ElEl != nil || v.NdCorner != nil || v.NdElStart != nil || v.Region != nil ||
						v.Faces != nil || v.BCs != nil || v.GlobalEl != nil || v.GlobalNd != nil {
						t.Fatal("Result.Mesh's source holds more of the canonical mesh than ElNd, X and Y")
					}
					if v.NEl != d.nel || v.NNd != d.nnd || len(v.ElNd) != v.NEl || len(v.X) != v.NNd || len(v.Y) != v.NNd {
						t.Fatalf("view sized %d/%d with %d/%d/%d entries, mesh %d/%d", v.NEl, v.NNd, len(v.ElNd), len(v.X), len(v.Y), d.nel, d.nnd)
					}
					for _, sl := range d.slots {
						g := sl.sub.M
						if renumbered := reorder != "none" || ranks > 1; (g.GlobalEl != nil) != renumbered {
							t.Fatalf("rank %d: global ids %v under reorder %q at %d ranks", sl.id, g.GlobalEl != nil, reorder, ranks)
						}
						if g.GlobalEl == nil {
							if &v.ElNd[0] != &g.ElNd[0] || &v.X[0] != &g.X[0] {
								t.Fatal("an unreordered run's view copies the problem mesh")
							}
							continue
						}
						for e := 0; e < g.NOwnEl; e++ {
							for k := 0; k < 4; k++ {
								if v.ElNd[g.GlobalEl[e]][k] != g.GlobalNd[g.ElNd[e][k]] {
									t.Fatalf("rank %d element %d corner %d: the view is not the canonical numbering", sl.id, e, k)
								}
							}
						}
						for n := 0; n < g.NOwnNd; n++ {
							if v.X[g.GlobalNd[n]] != g.X[n] || v.Y[g.GlobalNd[n]] != g.Y[n] {
								t.Fatalf("rank %d node %d: the view's coordinates are not canonical", sl.id, n)
							}
						}
					}
					res, err := d.run()
					if err != nil {
						t.Fatal(err)
					}
					if res.Mesh != v {
						t.Fatal("Result.Mesh is not the driver's canonical view")
					}
				})
			}
		})
	}
}
