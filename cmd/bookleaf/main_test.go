package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bookleaf/internal/setup"
)

// summary is what a run prints that must not depend on the rank count.
type summary struct {
	steps           int
	e0, e, mass0, m float64
	history         int
}

// buildCLI builds the command into a test temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bookleaf")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runCLI runs the built binary and parses its summary and history block.
func runCLI(t *testing.T, bin string, args ...string) summary {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bookleaf %v: %v\n%s", args, err, stderr.String())
	}
	var s summary
	inHistory := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		var t0, work, drift float64
		switch {
		case strings.HasPrefix(line, "steps "):
			fmt.Sscanf(line, "steps %d to t=%g", &s.steps, &t0)
		case strings.HasPrefix(line, "energy "):
			fmt.Sscanf(line, "energy E0=%g E=%g work=%g drift=%g", &s.e0, &s.e, &work, &drift)
		case strings.HasPrefix(line, "mass "):
			fmt.Sscanf(line, "mass M0=%g M=%g", &s.mass0, &s.m)
		case line == "step history:":
			inHistory = true
			sc.Scan() // column header
		case inHistory && strings.TrimSpace(line) == "":
			inHistory = false
		case inHistory:
			s.history++
		}
	}
	if s.steps == 0 || s.e == 0 || s.m == 0 {
		t.Fatalf("bookleaf %v: summary not found in output:\n%s", args, out)
	}
	return s
}

// TestOneDriverAtTheCLI is the user-visible statement that there is one
// driver: the same problem at -ranks 1 and -ranks 2 takes the same
// steps, prints the same audit, and — with -history, which used to be
// a one-rank feature — the same number of step records.
func TestOneDriverAtTheCLI(t *testing.T) {
	bin := buildCLI(t)
	agree := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(a) }
	for _, tc := range []struct {
		history string
		records int
	}{{"0", 0}, {"5", 4}} {
		t.Run("history="+tc.history, func(t *testing.T) {
			common := []string{"-problem", "sod", "-nx", "64", "-ny", "4", "-maxsteps", "20", "-quiet", "-history", tc.history}
			r1 := runCLI(t, bin, append(common, "-ranks", "1")...)
			r2 := runCLI(t, bin, append(common, "-ranks", "2")...)
			if r1.steps != 20 || r2.steps != r1.steps {
				t.Errorf("steps: %d at one rank, %d at two, want 20", r1.steps, r2.steps)
			}
			if !agree(r1.e0, r2.e0) || !agree(r1.e, r2.e) {
				t.Errorf("energy: E0 %v / %v, E %v / %v", r1.e0, r2.e0, r1.e, r2.e)
			}
			if !agree(r1.mass0, r2.mass0) || !agree(r1.m, r2.m) {
				t.Errorf("mass: M0 %v / %v, M %v / %v", r1.mass0, r2.mass0, r1.m, r2.m)
			}
			if r1.history != tc.records || r2.history != tc.records {
				t.Errorf("history records: %d at one rank, %d at two, want %d", r1.history, r2.history, tc.records)
			}
		})
	}
}

// TestDeckFlagsOverride: with -deck, every flag set on the command line
// overrides the deck. The deck runs Sod to t=0.25 (469 steps); with
// -maxsteps 20 it stops at 20, prints the -history records, and writes
// the -checkpoint dump, which -resume then continues from.
func TestDeckFlagsOverride(t *testing.T) {
	bin := buildCLI(t)
	deck, err := filepath.Abs("../../decks/sod.deck")
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "ck.ckpt")
	s := runCLI(t, bin, "-deck", deck, "-maxsteps", "20", "-checkpoint", ckpt, "-history", "5", "-quiet")
	if s.steps != 20 || s.history != 4 {
		t.Errorf("-deck with -maxsteps 20 -history 5: %d steps, %d history records, want 20 and 4", s.steps, s.history)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("-checkpoint wrote no dump: %v", err)
	}
	if r := runCLI(t, bin, "-deck", deck, "-resume", ckpt, "-maxsteps", "25", "-quiet"); r.steps != 25 {
		t.Errorf("resumed from the step-20 dump to -maxsteps 25: %d steps", r.steps)
	}
}

// TestRemovedSwitchesFailLoudly: the overlap, layout and fuse-tile
// switches are gone, and so are the rollback cadence, the retry budget
// and the probe drift threshold. A deck that still sets their keys
// runs, but the unused-keys warning names every one of them; each old
// flag is an unknown flag, which the flag package rejects with exit
// status 2.
func TestRemovedSwitchesFailLoudly(t *testing.T) {
	bin := buildCLI(t)
	t.Run("deck-keys", func(t *testing.T) {
		deck := filepath.Join(t.TempDir(), "old.deck")
		const text = "[control]\nproblem = sod\nnx = 16\nny = 2\nmaxsteps = 2\n" +
			"overlap = true\nlayout = soa\nfuse_tile = 64\n" +
			"rollback_every = 5\nretry_budget = 1\n[obs]\nprobe_maxdrift = 1e-6\n"
		if err := os.WriteFile(deck, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, "-deck", deck, "-quiet")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("run: %v\n%s", err, stderr.String())
		}
		const want = "warning: unused deck keys: [control.fuse_tile control.layout control.overlap " +
			"control.retry_budget control.rollback_every obs.probe_maxdrift]"
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q lacks %q", stderr.String(), want)
		}
	})
	for _, flag := range [][]string{
		{"-overlap"},
		{"-rollback-every", "5"},
		{"-retry-budget", "1"},
		{"-probe-maxdrift", "1e-6"},
	} {
		t.Run(flag[0][1:]+"-flag", func(t *testing.T) {
			cmd := exec.Command(bin, append(flag, "-maxsteps", "1")...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Fatalf("%s: err %v, want exit status 2\n%s", flag[0], err, stderr.String())
			}
			if !strings.Contains(stderr.String(), "flag provided but not defined: "+flag[0]) {
				t.Errorf("stderr %q does not name the unknown flag", stderr.String())
			}
		})
	}
}

// TestOversizeMeshExitsWithTheError: a mesh past the 32-bit index
// ceiling, including one whose element count overflows int, ends the
// command with exit status 1 and the generator's message on stderr, not
// a runtime out-of-memory crash. A failed run's message carries the
// command's prefix once: a missing resume dump and an unwritable heap
// profile path are more such inputs.
func TestOversizeMeshExitsWithTheError(t *testing.T) {
	bin := buildCLI(t)
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"100000x100000", []string{"-nx", "100000", "-ny", "100000"},
			"bookleaf: mesh: Rect 100000x100000 exceeds the 32-bit index ceiling of 536870911 elements"},
		{"4294967296x4294967296", []string{"-nx", "4294967296", "-ny", "4294967296"},
			"bookleaf: mesh: Rect 4294967296x4294967296 exceeds the 32-bit index ceiling of 536870911 elements"},
		{"resume", []string{"-nx", "8", "-ny", "2", "-resume", "/nonexistent.ckpt"},
			"bookleaf: resume: open /nonexistent.ckpt: no such file or directory"},
		{"memprofile", []string{"-nx", "8", "-ny", "2", "-memprofile", "/nonexistent/x"},
			"bookleaf: open /nonexistent/x: no such file or directory"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, append([]string{"-problem", "sod", "-quiet"}, tc.args...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 1 {
				t.Fatalf("err %v, want exit status 1\n%s", err, stderr.String())
			}
			if got := strings.TrimSpace(stderr.String()); got != tc.want {
				t.Errorf("stderr %q, want %q", got, tc.want)
			}
		})
	}
}

// TestProblemHelpNamesEveryProblem: the -problem help and the
// unknown-problem error list the same problems, and setup.ByName builds
// each of them.
func TestProblemHelpNamesEveryProblem(t *testing.T) {
	bin := buildCLI(t)
	help, _ := exec.Command(bin, "-h").CombinedOutput()
	_, list, _ := strings.Cut(string(help), "problem: ")
	list, _, _ = strings.Cut(list, " (default")
	names := strings.Split(list, ", ")
	for _, name := range names {
		if _, err := setup.ByName(name, 4, 4, 0); err != nil {
			t.Errorf("-problem help names %q: %v", name, err)
		}
	}
	out, _ := exec.Command(bin, "-problem", "nope").CombinedOutput()
	if want := strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]; !strings.Contains(string(out), "(want "+want+")") {
		t.Errorf("unknown-problem error %q does not list %s", out, want)
	}
}
