package main

import (
	"errors"
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

// TestTablesSmoke builds bleaf-tables and checks that -table1 -table2
// print every platform of Table I and, for each, Table II's model row
// followed by the paper row with the paper's overall time; and that an
// unknown flag is a usage error.
func TestTablesSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "bleaf-tables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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

	err = exec.Command(bin, "-no-such-flag").Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("unknown flag: %v, want a non-zero exit", err)
	}
}

func hasPrefix(lines []string, prefix string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}
