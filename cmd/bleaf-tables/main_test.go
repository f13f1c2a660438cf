package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// paperRows are the seven single-node configurations of the paper's
// Tables I and II, with Table II's overall Noh seconds.
var paperRows = []struct {
	name    string
	overall string
}{
	{"Skylake MPI", "76.1"},
	{"Skylake Hybrid", "168.6"},
	{"Broadwell MPI", "109.0"},
	{"Broadwell Hybrid", "180.4"},
	{"P100 (OpenMP)", "186.5"},
	{"P100 (CUDA)", "261.2"},
	{"V100 (CUDA)", "191.6"},
}

// headers lists each flag but -all, in the order -all prints them,
// with its artefact's header.
var headers = []struct{ flag, header string }{
	{"table1", "== Table I:"},
	{"table2", "== Table II:"},
	{"fig3", "== Figures 3, 4a, 4b:"},
	{"real", "== Real runs on this host"},
	{"whatif", "== What-if"},
	{"roofline", "== Kernel-fusion roofline"},
	{"reorder", "== Mesh renumbering locality readout"},
}

// TestTablesSmoke builds bleaf-tables and checks that -table1 -table2
// print every platform of Table I and, for each, Table II's model row
// followed by the paper row with the paper's overall time; that each
// flag prints its artefact's header (-real, seconds of host runs, only
// in -h here; TestTablesAll runs it); that -fig3 sets the paper's
// seconds beside the Figure 4a/4b kernel columns; and that an unknown
// flag is a usage error.
func TestTablesSmoke(t *testing.T) {
	bin := build(t)
	t.Run("table1+table2", func(t *testing.T) {
		out, err := exec.Command(bin, "-table1", "-table2").Output()
		if err != nil {
			t.Fatalf("bleaf-tables -table1 -table2: %v", err)
		}
		text := string(out)
		i1 := strings.Index(text, "== Table I:")
		i2 := strings.Index(text, "== Table II:")
		if i1 < 0 || i2 < i1 {
			t.Fatalf("Table I then Table II expected:\n%s", text)
		}
		t1 := strings.Split(text[i1:i2], "\n")
		t2 := strings.Split(text[i2:], "\n")
		for _, r := range paperRows {
			if !hasPrefix(t1, r.name+" ") {
				t.Errorf("Table I has no %q row", r.name)
			}
			found := false
			for i, line := range t2[:len(t2)-1] {
				if strings.HasPrefix(line, r.name+" ") && strings.HasSuffix(line, "<- model") {
					paper := strings.Fields(t2[i+1])
					found = len(paper) > 0 && paper[0] == r.overall && strings.HasSuffix(t2[i+1], "<- paper")
					break
				}
			}
			if !found {
				t.Errorf("Table II has no %q model row followed by a paper row of %s s", r.name, r.overall)
			}
		}
	})

	for _, h := range headers {
		t.Run(h.flag, func(t *testing.T) {
			args, header := []string{"-" + h.flag}, h.header
			if h.flag == "real" {
				args, header = []string{"-h"}, "-real"
			}
			out, _ := exec.Command(bin, args...).CombinedOutput()
			if !strings.Contains(string(out), header) {
				t.Errorf("bleaf-tables %s prints no %q:\n%s", args[0], header, out)
			}
			if h.flag != "fig3" {
				return
			}
			// Skylake at 8 and 64 nodes: model and paper seconds,
			// speedup, then the Figure 4a viscosity and 4b
			// acceleration seconds.
			for _, row := range []string{"8 2289 2400 - 774 230", "64 169 190 1.98x 58 19"} {
				if !hasFields(string(out), row) {
					t.Errorf("-fig3 has no Skylake row %q:\n%s", row, out)
				}
			}
		})
	}

	t.Run("unknown-flag", func(t *testing.T) {
		err := exec.Command(bin, "-no-such-flag").Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("unknown flag: %v, want a non-zero exit", err)
		}
	})
}

// TestTablesAll (make tables-all; tier 2, its -real host runs take
// seconds) checks that -all prints every artefact's header.
func TestTablesAll(t *testing.T) {
	if os.Getenv("BOOKLEAF_TABLES_ALL") == "" {
		t.Skip("set BOOKLEAF_TABLES_ALL=1 (make tables-all) to run bleaf-tables -all")
	}
	out, err := exec.Command(build(t), "-all").Output()
	if err != nil {
		t.Fatalf("bleaf-tables -all: %v", err)
	}
	for _, h := range headers {
		if !strings.Contains(string(out), h.header) {
			t.Errorf("bleaf-tables -all prints no %q header (-%s)", h.header, h.flag)
		}
	}
}

// build compiles bleaf-tables into the test's temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bleaf-tables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func hasPrefix(lines []string, prefix string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}

// hasFields reports whether some line of text has the fields of want.
func hasFields(text, want string) bool {
	for _, l := range strings.Split(text, "\n") {
		if strings.Join(strings.Fields(l), " ") == want {
			return true
		}
	}
	return false
}
