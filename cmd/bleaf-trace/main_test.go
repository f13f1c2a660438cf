package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bookleaf/internal/obs"
)

// build builds the command in dir (relative to this package) into a
// test temp dir.
func build(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	return bin
}

// TestMergesATwoRankRun drives the binary on what bookleaf -trace
// writes: a two-rank run's traces merge into one decodable JSON file
// with a lane per rank, a -normalize merge is byte-for-byte repeatable,
// and a missing input fails with a message instead of an empty file.
func TestMergesATwoRankRun(t *testing.T) {
	tracer := build(t, ".", "bleaf-trace")
	bookleaf := build(t, "../bookleaf", "bookleaf")
	dir := t.TempDir()
	prefix := filepath.Join(dir, "t")
	if out, err := exec.Command(bookleaf, "-problem", "sod", "-nx", "64", "-ny", "4", "-ranks", "2",
		"-maxsteps", "5", "-trace", prefix).CombinedOutput(); err != nil {
		t.Fatalf("bookleaf -trace: %v\n%s", err, out)
	}
	inputs := []string{obs.TracePath(prefix, 0), obs.TracePath(prefix, 1)}

	merge := func(out string) []byte {
		t.Helper()
		path := filepath.Join(dir, out)
		cmd := exec.Command(tracer, append([]string{"-normalize", "-o", path}, inputs...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("bleaf-trace -normalize: %v\n%s", err, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := merge("merged.json")
	var tf obs.TraceFile
	if err := json.Unmarshal(first, &tf); err != nil {
		t.Fatalf("merged trace does not decode: %v", err)
	}
	lanes := map[int]int{}
	for _, e := range tf.TraceEvents {
		lanes[e.Pid]++
	}
	if len(lanes) != 2 || lanes[0] == 0 || lanes[1] == 0 {
		t.Fatalf("merged trace has events per rank lane %v, want lanes 0 and 1", lanes)
	}
	if again := merge("again.json"); !bytes.Equal(first, again) {
		t.Fatal("two -normalize merges of the same traces differ")
	}

	missing := filepath.Join(dir, "absent.rank0.trace.json")
	cmd := exec.Command(tracer, "-o", filepath.Join(dir, "none.json"), missing)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("a missing input exited 0:\n%s", out)
	}
	if msg := string(out); !strings.HasPrefix(msg, "bleaf-trace:") || !strings.Contains(msg, missing) {
		t.Fatalf("a missing input printed %q, want a bleaf-trace: message naming %s", msg, missing)
	}
}
