package bookleaf

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bookleaf/internal/hydro"
)

// A run keeps what it still reads. Once the fleet is built an
// unsupervised run reads neither the global mesh it was cut from nor
// the problem's initial fields again: both go, and the corner slots the
// node gathers index through are derived, not stored. These tests hold
// a run's live heap per element to that, mid-run, where a long run
// spends its life.

// retentionNX, retentionNY and retentionStep are the run the retention
// tests measure: Sod 256×32, sampled at the end of step 5, after the
// fleet's one-off set-up garbage has been collected and before the
// result is gathered.
const retentionNX, retentionNY, retentionStep = 256, 32, 5

// retentionCeiling holds the live heap of that run, in bytes per
// element, per rank count: the measured 450.3 and 511.3 with about
// 13 B/el to spare, less than either the initial fields or the stored
// corner slots (16 B/el each) would put back. The slabs took 6 and 46
// B/el of page rounding off the 456.4 and 557.3 before them, and the
// ceilings came down by as much from 470 and 570.
var retentionCeiling = map[int]float64{1: 464, 2: 524}

// liveHeap is the live heap: HeapAlloc after two collections (the
// second sweeps what the first's finalizers released).
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retentionConfig is the measured run at the given rank count, with the
// Control a served run carries.
func retentionConfig(ranks int) Config {
	return Config{Problem: "sod", NX: retentionNX, NY: retentionNY, Ranks: ranks, Control: &Control{}}
}

// atRetentionStep arms cfg to call sample on rank 0 at the end of the
// measured step and then cancel the run.
func atRetentionStep(cfg *Config, sample func()) {
	cfg.testFault = func(rank, step int, _ *hydro.State) {
		if rank == 0 && step == retentionStep {
			sample()
			cfg.Control.Cancel()
		}
	}
}

// TestRunRetention runs Sod 256×32 through Run at one and two ranks and
// holds what the run keeps alive at step 5 to the ceiling.
func TestRunRetention(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			cfg := retentionConfig(ranks)
			var held uint64
			base := liveHeap()
			atRetentionStep(&cfg, func() { held = liveHeap() - base })
			if _, err := Run(cfg); !errors.Is(err, ErrCanceled) {
				t.Fatalf("run ended with %v, want it canceled after step %d", err, retentionStep)
			}
			perEl := float64(held) / (retentionNX * retentionNY)
			t.Logf("sod %dx%d at %d ranks holds %.1f B/el at step %d (ceiling %g)", retentionNX, retentionNY, ranks, perEl, retentionStep, retentionCeiling[ranks])
			if perEl > retentionCeiling[ranks] {
				t.Errorf("%.1f B/el live at step %d, ceiling %g", perEl, retentionStep, retentionCeiling[ranks])
			}
		})
	}
}

// TestDriverDropsWhatItNoLongerReads: after newDriver at two ranks an
// unsupervised driver holds no global-mesh arrays and no initial
// fields, and a supervised one holds both, since a re-split and a
// respawn read them. go test -v prints what the unsupervised run holds
// per element at step 5, array group by array group.
func TestDriverDropsWhatItNoLongerReads(t *testing.T) {
	for _, supervised := range []bool{false, true} {
		t.Run(fmt.Sprintf("supervised=%v", supervised), func(t *testing.T) {
			cfg := retentionConfig(2)
			if supervised {
				cfg.Supervise = &SuperviseConfig{Enabled: true}
			}
			var d *driver
			var table string
			base := liveHeap()
			atRetentionStep(&cfg, func() { table = d.retentionTable(liveHeap() - base) })
			if err := cfg.normalise(); err != nil {
				t.Fatal(err)
			}
			d, err := newDriver(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d.closeSlots()
			p := d.prob
			if kept := p.Mesh != nil && p.Rho != nil && p.Ein != nil; kept != supervised {
				t.Fatalf("driver holds the global mesh %v, the initial fields %v/%v; want both %v",
					p.Mesh != nil, p.Rho != nil, p.Ein != nil, supervised)
			}
			if supervised {
				return
			}
			if _, err := d.run(); !errors.Is(err, ErrCanceled) {
				t.Fatalf("run ended with %v, want it canceled after step %d", err, retentionStep)
			}
			t.Logf("what sod %dx%d at 2 ranks holds at step %d:\n%s", retentionNX, retentionNY, retentionStep, table)
		})
	}
}

// retentionTable accounts the live heap of a running fleet to the
// arrays that make it up, by group: the ranks' sub-meshes and exchange
// lists, the canonical view Result.Mesh presents, the global mesh and
// the initial fields while the driver still holds them, the ranks'
// states and their rollback and healthy-point mementos. The heap hands
// an array over 32 KiB whole 8 KiB pages, which on a mesh this small is
// a row of its own; what the arrays do not explain (registries,
// communicator buffers, the runtime's own heap) is the last. The
// result's seven arrays are gathered after the last step, on top of all
// this.
func (d *driver) retentionTable(live uint64) string {
	var subs, states, mementos, global []any
	for _, sl := range d.slots {
		subs = append(subs, sl.sub.M)
		for _, lists := range []map[int][]int{sl.sub.ElSend, sl.sub.ElRecv, sl.sub.NdSend, sl.sub.NdRecv} {
			for _, l := range lists {
				subs = append(subs, &struct{ l []int }{l})
			}
		}
		states = append(states, sl.s)
		mementos = append(mementos, &sl.roll, &sl.stepStart)
	}
	if d.prob.Mesh != nil {
		global = append(global, d.prob.Mesh)
	}
	groups := []struct {
		name   string
		owners []any
	}{
		{"sub-meshes and exchange lists", subs},
		{"canonical view (Result.Mesh)", []any{d.canon}},
		{"global mesh", global},
		{"initial fields", []any{d.prob}},
		{"states", states},
		{"rollback and healthy-point mementos", mementos},
	}
	var arrays []array
	for _, g := range groups {
		for _, o := range g.owners {
			for _, a := range slicesOf("", o, nil) {
				a.name = g.name
				arrays = append(arrays, a)
			}
		}
	}
	for _, sl := range d.slots {
		arrays = append(arrays, slabsOf(sl.s)...)
	}
	total := countOnce(arrays)
	const largeObject, page = 32 << 10, 8 << 10
	held := map[string]uintptr{}
	var pages uintptr
	for _, a := range arrays {
		held[a.name] += a.bytes
		if size := a.hi - a.lo; a.bytes == size && size > largeObject {
			pages += (size+page-1)/page*page - size
		}
	}

	nel := float64(d.nel)
	var b strings.Builder
	fmt.Fprintf(&b, "| held by | B/el |\n|---|---:|\n")
	for _, g := range groups {
		fmt.Fprintf(&b, "| %s | %.1f |\n", g.name, float64(held[g.name])/nel)
	}
	fmt.Fprintf(&b, "| rounding of those arrays to whole pages | %.1f |\n", float64(pages)/nel)
	fmt.Fprintf(&b, "| the rest: registries, communicator, runtime | %.1f |\n", (float64(live)-float64(total+pages))/nel)
	fmt.Fprintf(&b, "| **live heap** | **%.1f** |\n", float64(live)/nel)
	fmt.Fprintf(&b, "| result, gathered after the last step | %.1f |\n", float64(8*(3*d.nel+4*d.nnd))/nel)
	return b.String()
}

// slabsOf is the element and node slab of s, each one allocation that
// the state's row views lie inside, so that the accounting rounds the
// allocation to pages and not each row.
func slabsOf(s *hydro.State) []array {
	var out []array
	for _, name := range []string{"el", "nd"} {
		buf := reflect.ValueOf(s).Elem().FieldByName(name).FieldByName("buf")
		lo := buf.Pointer()
		out = append(out, array{name: "states", lo: lo, hi: lo + uintptr(buf.Cap())*8})
	}
	return out
}
