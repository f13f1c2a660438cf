package config

import "testing"

const sample = `
# a comment
[control]
problem = sod       # trailing comment
nx = 200
ny = 4
tend = 0.25
verbose = true

[ale]
mode = eulerian
freq = 2
firstorder = .false.
`

func TestParseAndGetters(t *testing.T) {
	d, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String("control", "problem", ""); got != "sod" {
		t.Fatalf("problem = %q", got)
	}
	if n, err := d.Int("control", "nx", 0); err != nil || n != 200 {
		t.Fatalf("nx = %d, %v", n, err)
	}
	if f, err := d.Float("control", "tend", 0); err != nil || f != 0.25 {
		t.Fatalf("tend = %v, %v", f, err)
	}
	if b, err := d.Bool("control", "verbose", false); err != nil || !b {
		t.Fatalf("verbose = %v, %v", b, err)
	}
	if b, err := d.Bool("ale", "firstorder", true); err != nil || b {
		t.Fatalf("fortran .false. not handled: %v %v", b, err)
	}
}

func TestDefaultsWhenAbsent(t *testing.T) {
	d, _ := ParseString(sample)
	if got := d.String("control", "missing", "dflt"); got != "dflt" {
		t.Fatalf("default string = %q", got)
	}
	if n, err := d.Int("nosection", "x", 7); err != nil || n != 7 {
		t.Fatalf("default int = %d, %v", n, err)
	}
}

func TestCaseInsensitive(t *testing.T) {
	d, err := ParseString("[Control]\nNX = 5\n")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := d.Int("control", "nx", 0); n != 5 {
		t.Fatalf("case-insensitive lookup failed: %d", n)
	}
}

func TestTypeErrors(t *testing.T) {
	d, _ := ParseString("[a]\nx = hello\n")
	if _, err := d.Int("a", "x", 0); err == nil {
		t.Fatal("non-integer accepted")
	}
	if _, err := d.Float("a", "x", 0); err == nil {
		t.Fatal("non-float accepted")
	}
	if _, err := d.Bool("a", "x", false); err == nil {
		t.Fatal("non-bool accepted")
	}
}

func TestMalformedDecks(t *testing.T) {
	bad := []string{
		"[unclosed\nx = 1\n",
		"x = 1\n", // key before any section
		"[a]\nnovalue\n",
		"[a]\n= 3\n",
		"[a]\nx = 1\nx = 2\n", // duplicate
	}
	for _, deck := range bad {
		if _, err := ParseString(deck); err == nil {
			t.Fatalf("malformed deck accepted: %q", deck)
		}
	}
}

func TestUnusedReportsTypos(t *testing.T) {
	d, _ := ParseString("[control]\nnx = 3\nnz = 9\n")
	if _, err := d.Int("control", "nx", 0); err != nil {
		t.Fatal(err)
	}
	unused := d.Unused()
	if len(unused) != 1 || unused[0] != "control.nz" {
		t.Fatalf("unused = %v, want [control.nz]", unused)
	}
}

func TestBangComments(t *testing.T) {
	d, err := ParseString("[a]\nx = 4 ! fortran comment\n! full line\n")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := d.Int("a", "x", 0); n != 4 {
		t.Fatalf("x = %d", n)
	}
}
