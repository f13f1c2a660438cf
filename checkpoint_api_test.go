package bookleaf_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bookleaf"
	"bookleaf/internal/checkpoint"
)

func TestCheckpointResumeThroughConfig(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "sod.ckpt")

	// Continuous reference run.
	ref := run(t, bookleaf.Config{Problem: "sod", NX: 48, NY: 2, MaxSteps: 60})

	// First half, dumping a checkpoint at the end.
	first := run(t, bookleaf.Config{Problem: "sod", NX: 48, NY: 2, MaxSteps: 30, Checkpoint: ck})
	if first.Steps != 30 {
		t.Fatalf("first leg steps = %d", first.Steps)
	}

	// Second half from the dump.
	second := run(t, bookleaf.Config{Problem: "sod", NX: 48, NY: 2, MaxSteps: 60, Resume: ck})
	if second.Steps != ref.Steps {
		t.Fatalf("resumed steps %d != reference %d", second.Steps, ref.Steps)
	}
	for e := range ref.Rho {
		if second.Rho[e] != ref.Rho[e] {
			t.Fatalf("resume diverged at element %d: %v vs %v", e, second.Rho[e], ref.Rho[e])
		}
	}
	if math.Abs(second.Time-ref.Time) > 0 {
		t.Fatalf("resume time %v != reference %v", second.Time, ref.Time)
	}
}

// maxFieldDiff returns the largest |a-b| over two equal-length fields.
func maxFieldDiff(t *testing.T, a, b []float64) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("field lengths differ: %d vs %d", len(a), len(b))
	}
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// TestCheckpointCadenceIsInert: a cadence checkpoint parks the fleet
// between epochs while the driver writes the dump, and the parked run
// must be the run that never wrote one — bitwise fields, the same steps,
// kernel calls, history, probe records and traffic, and the same
// counters and gauges, timing aside.
func TestCheckpointCadenceIsInert(t *testing.T) {
	type row struct {
		ranks     int
		ale       string
		supervise bool
	}
	var rows []row
	for _, ranks := range []int{1, 2} {
		for _, ale := range []string{"", "eulerian"} {
			rows = append(rows, row{ranks, ale, false})
		}
	}
	rows = append(rows, row{2, "", true})
	for _, r := range rows {
		t.Run(fmt.Sprintf("ranks=%d/ale=%q/supervise=%v", r.ranks, r.ale, r.supervise), func(t *testing.T) {
			base := bookleaf.Config{
				Problem: "sod", NX: 48, NY: 4, MaxSteps: 40, Ranks: r.ranks, ALE: r.ale,
				ProbeEvery: 5, HistoryEvery: 5,
			}
			if r.supervise {
				base.Supervise = &bookleaf.SuperviseConfig{Enabled: true}
			}
			ref := run(t, base)
			cfg := base
			cfg.Checkpoint = filepath.Join(t.TempDir(), "cadence.ckpt")
			cfg.CheckpointEvery = 10
			got := run(t, cfg)

			for name, f := range map[string][2][]float64{
				"rho": {got.Rho, ref.Rho}, "ein": {got.Ein, ref.Ein}, "p": {got.P, ref.P},
				"u": {got.U, ref.U}, "v": {got.V, ref.V}, "x": {got.X, ref.X}, "y": {got.Y, ref.Y},
			} {
				if !reflect.DeepEqual(f[0], f[1]) {
					t.Errorf("%s differs from the run without a checkpoint", name)
				}
			}
			if got.Steps != ref.Steps || got.CommMsgs != ref.CommMsgs || got.CommWords != ref.CommWords {
				t.Errorf("steps/msgs/words %d/%d/%d, want %d/%d/%d",
					got.Steps, got.CommMsgs, got.CommWords, ref.Steps, ref.CommMsgs, ref.CommWords)
			}
			for name, pair := range map[string][2]any{
				"Calls": {got.Calls, ref.Calls}, "History": {got.History, ref.History},
				"Probes": {got.Probes, ref.Probes}, "gauges": {got.Obs.Gauges, ref.Obs.Gauges},
			} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Errorf("%s = %v, want %v", name, pair[0], pair[1])
				}
			}
			if len(got.History) != 8 || len(got.Probes) != 8 {
				t.Errorf("%d history rows and %d probe records, want 8 of each", len(got.History), len(got.Probes))
			}
			// The _ns counters are wall time; every other counter counts.
			for _, res := range []*bookleaf.Result{got, ref} {
				for name := range res.Obs.Counters {
					if strings.HasSuffix(name, "_ns") {
						continue
					}
					if g, w := got.Obs.Counters[name], ref.Obs.Counters[name]; g != w {
						t.Errorf("counter %s = %d, want %d", name, g, w)
					}
				}
			}
		})
	}
}

// Snapshots are partition-independent: a serial run to step N and a
// 4-rank run resumed from a 2-rank checkpoint at the same step must
// agree on the final state to 1e-12.
func TestCheckpointCrossesRankCounts(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "cross.ckpt")

	ref := run(t, bookleaf.Config{Problem: "sod", NX: 48, NY: 4, MaxSteps: 40})

	leg := run(t, bookleaf.Config{Problem: "sod", NX: 48, NY: 4, MaxSteps: 20, Ranks: 2, Checkpoint: ck})
	if leg.Steps != 20 {
		t.Fatalf("checkpoint leg steps = %d", leg.Steps)
	}
	res := run(t, bookleaf.Config{Problem: "sod", NX: 48, NY: 4, MaxSteps: 40, Ranks: 4, Resume: ck})
	if res.Steps != ref.Steps {
		t.Fatalf("resumed steps %d != reference %d", res.Steps, ref.Steps)
	}
	if d := maxFieldDiff(t, res.Rho, ref.Rho); d > 1e-12 {
		t.Fatalf("rho differs from serial reference by %v", d)
	}
	if d := maxFieldDiff(t, res.Ein, ref.Ein); d > 1e-12 {
		t.Fatalf("ein differs from serial reference by %v", d)
	}
}

// The acceptance path: a 4-rank run checkpointed mid-run through
// CheckpointEvery, resumed at a different rank count (3, with the other
// partitioner), matches the uninterrupted run's final state to 1e-12.
func TestCheckpointMidRunResumesAtDifferentRankCount(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "mid.ckpt")

	ref := run(t, bookleaf.Config{Problem: "sod", NX: 48, NY: 4, MaxSteps: 40, Ranks: 4})

	// CheckpointEvery writes at steps 15 and 30; cap the run at 30 so
	// the final dump lands mid-way through the reference run.
	leg := run(t, bookleaf.Config{
		Problem: "sod", NX: 48, NY: 4, MaxSteps: 30, Ranks: 4,
		Checkpoint: ck, CheckpointEvery: 15,
	})
	if leg.Steps != 30 {
		t.Fatalf("checkpoint leg steps = %d", leg.Steps)
	}

	res := run(t, bookleaf.Config{
		Problem: "sod", NX: 48, NY: 4, MaxSteps: 40,
		Ranks: 3, Partitioner: "metis", Resume: ck,
	})
	if res.Steps != ref.Steps {
		t.Fatalf("resumed steps %d != reference %d", res.Steps, ref.Steps)
	}
	if d := maxFieldDiff(t, res.Rho, ref.Rho); d > 1e-12 {
		t.Fatalf("rho differs from uninterrupted run by %v", d)
	}
	if d := maxFieldDiff(t, res.Ein, ref.Ein); d > 1e-12 {
		t.Fatalf("ein differs from uninterrupted run by %v", d)
	}
	// Work/floor audits travel through the snapshot as global sums;
	// the resumed run's conservation audit must still close.
	if drift := res.EnergyDrift(); drift > 1e-10 {
		t.Fatalf("energy drift %v after cross-rank resume", drift)
	}
}

// Resume failures must surface before any ranks spawn, with a clear
// cause: missing file, truncated dump, wrong format version.
func TestResumeMissingFileFails(t *testing.T) {
	for _, ranks := range []int{1, 4} {
		_, err := bookleaf.Run(bookleaf.Config{Problem: "sod", NX: 16, NY: 2, Ranks: ranks, Resume: "/nonexistent/file"})
		if err == nil {
			t.Fatalf("missing resume file accepted at %d ranks", ranks)
		}
		if !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("error does not wrap the open failure: %v", err)
		}
	}
}

func TestResumeTruncatedFileFails(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "whole.ckpt")
	run(t, bookleaf.Config{Problem: "sod", NX: 16, NY: 2, MaxSteps: 10, Checkpoint: ck})

	raw, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.ckpt")
	if err := os.WriteFile(cut, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2} {
		_, err := bookleaf.Run(bookleaf.Config{Problem: "sod", NX: 16, NY: 2, Ranks: ranks, Resume: cut})
		if err == nil {
			t.Fatalf("truncated dump accepted at %d ranks", ranks)
		}
	}
}

// TestResumeBitFlippedDumpFails: a dump with one flipped bit — in the
// header, the clock, the fields — is refused at resume, never resumed
// into a quietly different state. The offsets span the whole dump.
func TestResumeBitFlippedDumpFails(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "sod.ckpt")
	run(t, bookleaf.Config{Problem: "sod", NX: 100, NY: 4, MaxSteps: 20, Checkpoint: ck})
	clean, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{5000, 15000, 23109, 30000, 40000} {
		if off >= len(clean) {
			t.Fatalf("offset %d past the %d-byte dump", off, len(clean))
		}
		b := append([]byte(nil), clean...)
		b[off] ^= 0x10
		bad := filepath.Join(dir, fmt.Sprintf("flip%d.ckpt", off))
		if err := os.WriteFile(bad, b, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := bookleaf.Run(bookleaf.Config{Problem: "sod", NX: 100, NY: 4, MaxSteps: 40, Resume: bad})
		if err == nil {
			t.Errorf("offset %d: a bit-flipped dump resumed to step %d", off, res.Steps)
		}
	}
}

func TestResumeWrongVersionFails(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "v2.ckpt")
	run(t, bookleaf.Config{Problem: "sod", NX: 16, NY: 2, MaxSteps: 10, Checkpoint: ck})

	f, err := os.Open(ck)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	snap.Version = 1
	old := filepath.Join(dir, "v1.ckpt")
	out, err := os.Create(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Write(out); err != nil {
		t.Fatal(err)
	}
	out.Close()

	for _, ranks := range []int{1, 2} {
		_, err := bookleaf.Run(bookleaf.Config{Problem: "sod", NX: 16, NY: 2, Ranks: ranks, Resume: old})
		if !errors.Is(err, checkpoint.ErrVersion) {
			t.Fatalf("version-1 dump at %d ranks: error %v does not match ErrVersion", ranks, err)
		}
	}
}

// A resume dump from a different problem or resolution is rejected up
// front regardless of rank count.
func TestResumeIdentityMismatchFails(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "sod.ckpt")
	run(t, bookleaf.Config{Problem: "sod", NX: 16, NY: 2, MaxSteps: 10, Checkpoint: ck})
	for _, ranks := range []int{1, 2} {
		if _, err := bookleaf.Run(bookleaf.Config{Problem: "sod", NX: 20, NY: 2, Ranks: ranks, Resume: ck}); err == nil {
			t.Fatalf("mismatched resolution accepted at %d ranks", ranks)
		}
	}
}
