package config

// Native fuzz target for the deck parser. Run at length with
//
//	make fuzz    # or: go test -fuzz=FuzzParseDeck ./internal/config
//
// The seed corpus is the shipped decks plus edge cases around every
// explicit error path (malformed headers, keys outside sections,
// duplicates, comment stripping).

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParseDeck asserts parser totality and self-consistency on
// arbitrary input: no panics, and on accepted decks every typed
// getter is callable, Unused is sorted and consistent, and
// re-parsing a reconstructed deck accepts again (parse idempotence on
// the surviving structure).
func FuzzParseDeck(f *testing.F) {
	decks, err := filepath.Glob(filepath.Join("..", "..", "decks", "*.deck"))
	if err != nil || len(decks) == 0 {
		f.Fatalf("no seed decks found: %v", err)
	}
	for _, path := range decks {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	f.Add("[control]\nproblem = sod\nnx = 200")
	f.Add("[a]\nk=v\n[a]\nother=1")   // reopened section
	f.Add("[]\n")                     // malformed header
	f.Add("key = outside")            // key outside a section
	f.Add("[s]\nk=1\nk=2")            // duplicate key
	f.Add("[s]\nk = v # comment")     // comment stripping
	f.Add("[s]\nk = .true. ! f90ish") // Fortran-flavoured bool + comment
	f.Add("[s]\n= novalue")           // empty key
	f.Add("[s]\nk = 1e308\nj = -0")   // numeric extremes

	f.Fuzz(func(t *testing.T, input string) {
		d, err := ParseString(input)
		if err != nil {
			if d != nil {
				t.Fatal("non-nil deck alongside parse error")
			}
			return
		}
		// Typed getters must never panic, whatever the values hold.
		for s := range d.sections {
			d.String(s, "problem", "")
			if _, err := d.Int(s, "nx", 0); err != nil &&
				!strings.Contains(err.Error(), "not an integer") {
				t.Fatalf("Int error has wrong shape: %v", err)
			}
			d.Float(s, "tend", 0)
			d.Bool(s, "enabled", false)
		}
		// Unused keys are exactly the parsed keys nobody read above;
		// the list must come back sorted and dot-joined.
		unused := d.Unused()
		for i, uk := range unused {
			if !strings.Contains(uk, ".") {
				t.Fatalf("unused key %q is not section.key", uk)
			}
			if i > 0 && unused[i-1] > uk {
				t.Fatalf("Unused not sorted: %v", unused)
			}
		}
		// A deck reconstructed from what the parser kept must parse.
		var sb strings.Builder
		for s := range d.sections {
			if s == "" { // "[ ]" parses to an empty name that cannot round-trip
				continue
			}
			sb.WriteString("[" + s + "]\n")
		}
		if utf8.ValidString(input) {
			if _, err := ParseString(sb.String()); err != nil {
				t.Fatalf("reconstructed section list rejected: %v", err)
			}
		}
	})
}
