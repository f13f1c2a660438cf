package main

import (
	"errors"
	"math"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// buildCLI builds the command into a test temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bleaf-converge")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestConvergeCLI runs the built study to 100 cells: one row per
// level, 50 and 100, each with a finite positive L1 error, and one
// order value, on the second row. A flag the command does not know is a
// non-zero exit, not a study run with defaults.
func TestConvergeCLI(t *testing.T) {
	bin := buildCLI(t)
	t.Run("max=100", func(t *testing.T) {
		out, err := exec.Command(bin, "-max", "100").CombinedOutput()
		if err != nil {
			t.Fatalf("bleaf-converge -max 100: %v\n%s", err, out)
		}
		var cells []int
		var orders int
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) != 3 {
				continue
			}
			n, err := strconv.Atoi(f[0])
			if err != nil {
				continue // the column header
			}
			cells = append(cells, n)
			if l1, err := strconv.ParseFloat(f[1], 64); err != nil || math.IsNaN(l1) || math.IsInf(l1, 0) || l1 <= 0 {
				t.Errorf("%d cells: L1 error %q is not a finite positive number", n, f[1])
			}
			if f[2] != "-" {
				if _, err := strconv.ParseFloat(f[2], 64); err != nil {
					t.Errorf("%d cells: order %q is not a number", n, f[2])
				}
				orders++
			}
		}
		if len(cells) != 2 || cells[0] != 50 || cells[1] != 100 || orders != 1 {
			t.Fatalf("rows for %v cells with %d order values, want 50 and 100 with one:\n%s", cells, orders, out)
		}
	})
	t.Run("unknown-flag", func(t *testing.T) {
		err := exec.Command(bin, "-no-such-flag").Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("bleaf-converge -no-such-flag: %v, want a non-zero exit", err)
		}
	})
}
