// Package config parses BookLeaf input decks. The reference
// implementation reads Fortran namelists; this package accepts the
// moral equivalent — INI-style sections of key = value lines with #
// or ! comments — and exposes typed getters with defaults.
//
//	# sod.deck
//	[control]
//	problem = sod
//	nx = 200
//	ny = 4
//	[ale]
//	mode = eulerian
package config

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Deck is a parsed input deck.
type Deck struct {
	sections map[string]map[string]string
	// read tracks accessed keys so Unused can flag typos.
	read map[string]bool
}

// Parse reads a deck from r.
func Parse(r io.Reader) (*Deck, error) {
	d := &Deck{
		sections: make(map[string]map[string]string),
		read:     make(map[string]bool),
	}
	scanner := bufio.NewScanner(r)
	section := ""
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		// Strip comments (# and the Fortran-namelist-flavoured !).
		if i := strings.IndexAny(line, "#!"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") || len(line) < 3 {
				return nil, fmt.Errorf("config: line %d: malformed section header %q", lineNo, line)
			}
			section = strings.ToLower(strings.TrimSpace(line[1 : len(line)-1]))
			if _, dup := d.sections[section]; !dup {
				d.sections[section] = make(map[string]string)
			}
			continue
		}
		eq := strings.Index(line, "=")
		if eq < 0 {
			return nil, fmt.Errorf("config: line %d: expected key = value, got %q", lineNo, line)
		}
		if section == "" {
			return nil, fmt.Errorf("config: line %d: key outside any [section]", lineNo)
		}
		key := strings.ToLower(strings.TrimSpace(line[:eq]))
		val := strings.TrimSpace(line[eq+1:])
		if key == "" {
			return nil, fmt.Errorf("config: line %d: empty key", lineNo)
		}
		if _, dup := d.sections[section][key]; dup {
			return nil, fmt.Errorf("config: line %d: duplicate key %s.%s", lineNo, section, key)
		}
		d.sections[section][key] = val
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return d, nil
}

// ParseString parses a deck held in a string.
func ParseString(s string) (*Deck, error) {
	return Parse(strings.NewReader(s))
}

// ErrTooLarge is matched (via errors.Is) by the error ParseLimit
// returns when the input exceeds its byte budget.
var ErrTooLarge = errors.New("config: deck too large")

// ParseLimit parses a deck from r, reading at most max bytes. It is
// the entry point for untrusted sources (the bleaf-served submission
// endpoint): a deck is a few hundred bytes of key = value lines, so a
// megabyte-scale body is garbage by construction and is rejected with
// ErrTooLarge before any of it is retained.
func ParseLimit(r io.Reader, max int64) (*Deck, error) {
	if max <= 0 {
		return Parse(r)
	}
	lr := &io.LimitedReader{R: r, N: max + 1}
	d, err := Parse(lr)
	if lr.N <= 0 {
		return nil, fmt.Errorf("%w (over %d bytes)", ErrTooLarge, max)
	}
	return d, err
}

func (d *Deck) lookup(section, key string) (string, bool) {
	sec, ok := d.sections[strings.ToLower(section)]
	if !ok {
		return "", false
	}
	v, ok := sec[strings.ToLower(key)]
	if ok {
		d.read[strings.ToLower(section)+"."+strings.ToLower(key)] = true
	}
	return v, ok
}

// String returns the value of section.key, or def when absent.
func (d *Deck) String(section, key, def string) string {
	if v, ok := d.lookup(section, key); ok {
		return v
	}
	return def
}

// Int returns section.key parsed as an int.
func (d *Deck) Int(section, key string, def int) (int, error) {
	v, ok := d.lookup(section, key)
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("config: %s.%s = %q is not an integer", section, key, v)
	}
	return n, nil
}

// Float returns section.key parsed as a float64.
func (d *Deck) Float(section, key string, def float64) (float64, error) {
	v, ok := d.lookup(section, key)
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("config: %s.%s = %q is not a number", section, key, v)
	}
	return f, nil
}

// Bool returns section.key parsed as a boolean (true/false/yes/no/1/0).
func (d *Deck) Bool(section, key string, def bool) (bool, error) {
	v, ok := d.lookup(section, key)
	if !ok {
		return def, nil
	}
	switch strings.ToLower(v) {
	case "true", "yes", "on", "1", ".true.":
		return true, nil
	case "false", "no", "off", "0", ".false.":
		return false, nil
	}
	return false, fmt.Errorf("config: %s.%s = %q is not a boolean", section, key, v)
}

// Has reports whether the deck contains the named section (even an
// empty one), without marking any key as read.
func (d *Deck) Has(section string) bool {
	_, ok := d.sections[strings.ToLower(section)]
	return ok
}

// Unused returns the sorted list of keys that were parsed but never
// read — almost always typos in the deck.
func (d *Deck) Unused() []string {
	var out []string
	for sec, kv := range d.sections {
		for k := range kv {
			if !d.read[sec+"."+k] {
				out = append(out, sec+"."+k)
			}
		}
	}
	sort.Strings(out)
	return out
}
