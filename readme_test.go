package bookleaf_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bookleaf"
	"bookleaf/internal/config"
)

// referenceSection is the README heading over the reference table.
const referenceSection = "Reference: flags and deck keys"

// TestReadmeMatchesCode holds README.md to the code it describes: every
// ```ini block must be a deck that ConfigFromDeck reads in full (no
// unknown key), and every backticked command-line flag in the prose must
// be one some binary under cmd/ lists in its -h output. A knob deleted
// from the code but left in the prose fails here. The other way round,
// the README's reference table (rows "| `binary` | flags | deck keys |
// set by |") must name every flag each binary lists and every
// [section] key deck.go reads, and nothing else: a knob added to the
// code without a row saying what sets it fails here too. Every repo
// path it names (cmd/…, internal/…, examples/…, decks/…, globs
// included) must exist, so a deleted program left in the prose fails.
func TestReadmeMatchesCode(t *testing.T) {
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	repoPath := regexp.MustCompile(`(?:cmd|internal|examples|decks)/[\w./*-]*`)
	for _, p := range repoPath.FindAllString(string(src), -1) {
		p = strings.TrimRight(p, ".")
		if m, _ := filepath.Glob(p); len(m) == 0 {
			t.Errorf("README.md names %s, which does not exist", p)
		}
	}
	var prose strings.Builder
	var decks, table []string
	var block strings.Builder
	fence, lang, section := false, "", ""
	for _, line := range strings.Split(string(src), "\n") {
		if heading, ok := strings.CutPrefix(line, "## "); ok && !fence {
			section = heading
		}
		if section == referenceSection && strings.HasPrefix(line, "| `") {
			table = append(table, line)
		}
		if trimmed := strings.TrimSpace(line); strings.HasPrefix(trimmed, "```") {
			if !fence {
				fence, lang = true, strings.TrimPrefix(trimmed, "```")
				block.Reset()
			} else {
				fence = false
				if lang == "ini" {
					decks = append(decks, block.String())
				}
			}
			continue
		}
		if fence {
			block.WriteString(line + "\n")
		} else {
			prose.WriteString(line + " ")
		}
	}
	if len(decks) == 0 {
		t.Fatal("README.md has no ```ini block")
	}
	if len(table) == 0 {
		t.Fatalf("README.md has no rows under ## %s", referenceSection)
	}
	for i, deck := range decks {
		d, err := config.ParseString(deck)
		if err != nil {
			t.Errorf("ini block %d does not parse: %v\n%s", i, err, deck)
			continue
		}
		if _, err := bookleaf.ConfigFromDeck(d); err != nil {
			t.Errorf("ini block %d does not map onto a Config: %v\n%s", i, err, deck)
		}
		if unused := d.Unused(); len(unused) > 0 {
			t.Errorf("ini block %d has keys no code reads: %v", i, unused)
		}
	}

	// A code span that opens with a flag: `-ranks`, `-fuse=false`,
	// `-metrics FILE`, `-table1 -table2`.
	codeSpan, flagSpan := regexp.MustCompile("`([^`]+)`"), regexp.MustCompile(`^-[A-Za-z]`)
	var flags []string
	for _, m := range codeSpan.FindAllStringSubmatch(prose.String(), -1) {
		if !flagSpan.MatchString(m[1]) {
			continue
		}
		for _, tok := range strings.Fields(m[1]) {
			if name, ok := strings.CutPrefix(tok, "-"); ok && name != "" {
				name, _, _ = strings.Cut(name, "=")
				flags = append(flags, name)
			}
		}
	}
	if len(flags) == 0 {
		t.Fatal("README.md names no flag")
	}

	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	exes, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	binFlags := map[string][]string{}
	usageLine := regexp.MustCompile(`(?m)^\s+-([A-Za-z][\w.-]*)`)
	for _, e := range exes {
		// The usage text is what counts, not the exit status of -h.
		out, _ := exec.Command(filepath.Join(bin, e.Name()), "-h").CombinedOutput()
		for _, m := range usageLine.FindAllStringSubmatch(string(out), -1) {
			defined[m[1]] = true
			binFlags[e.Name()] = append(binFlags[e.Name()], m[1])
		}
	}
	if len(defined) == 0 {
		t.Fatalf("no binary under cmd/ listed a flag (%d built)", len(exes))
	}
	for _, f := range flags {
		if !defined[f] {
			t.Errorf("README.md names -%s, which no binary under cmd/ defines", f)
		}
	}

	// The reference table, row by row: binary, flags, deck keys.
	tabled := map[string]bool{} // "binary -flag" and "[section] key"
	keySpan := regexp.MustCompile(`^\[\w+\] \w+$`)
	for _, row := range table {
		cells := strings.Split(row, "|")
		if len(cells) < 5 {
			t.Errorf("reference row has %d cells, want binary | flags | deck keys | set by: %s", len(cells)-2, row)
			continue
		}
		binary := strings.Trim(cells[1], " `")
		for _, m := range codeSpan.FindAllStringSubmatch(cells[2], -1) {
			if !strings.HasPrefix(m[1], "-") {
				t.Errorf("reference row for %s has %q in its flag column", binary, m[1])
			}
			tabled[binary+" "+m[1]] = true
		}
		for _, m := range codeSpan.FindAllStringSubmatch(cells[3], -1) {
			if !keySpan.MatchString(m[1]) {
				t.Errorf("reference row for %s has %q in its deck-key column", binary, m[1])
			}
			tabled[m[1]] = true
		}
	}
	want := map[string]bool{}
	for binary, names := range binFlags {
		for _, f := range names {
			want[binary+" -"+f] = true
		}
	}
	deckSrc, err := os.ReadFile("deck.go")
	if err != nil {
		t.Fatal(err)
	}
	deckRead := regexp.MustCompile(`d\.(?:String|Int|Float|Bool)\("(\w+)", "(\w+)"`)
	keys := deckRead.FindAllStringSubmatch(string(deckSrc), -1)
	if len(keys) == 0 {
		t.Fatal("found no d.String/Int/Float/Bool key read in deck.go")
	}
	for _, m := range keys {
		want["["+m[1]+"] "+m[2]] = true
	}
	for name := range want {
		if !tabled[name] {
			t.Errorf("README.md's reference table has no row for %s", name)
		}
	}
	for name := range tabled {
		if !want[name] {
			t.Errorf("README.md's reference table names %s, which the code does not define", name)
		}
	}
}

// TestDocsNameRealConfigFields holds README.md and DESIGN.md to the
// code: every backticked `Type.Member` (or `pkg.Type.Member`) whose
// Type is declared in the module's non-test Go outside bench/ must name
// a field or a method of that type, so a member deleted from the code
// but left in the prose — `Config.X`, `Remapper.Y` — fails here. An
// unqualified Type declared in several packages passes when any of them
// has the member; a span naming a repository file (`driver.go`) is a
// file, not a member.
func TestDocsNameRealConfigFields(t *testing.T) {
	members := moduleMembers(t)
	span := regexp.MustCompile("`[^`\n]+`")
	chain := regexp.MustCompile(`(?:^|[^\w./])(\w+(?:\.\w+)+)`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range span.FindAllString(string(src), -1) {
			for _, m := range chain.FindAllStringSubmatch(strings.Trim(sp, "`"), -1) {
				if _, err := os.Stat(m[1]); err == nil {
					continue
				}
				parts := strings.Split(m[1], ".")
				typ, member := parts[0], parts[1]
				if len(parts) > 2 && members[parts[0]+"."+parts[1]] != nil {
					typ, member = parts[0]+"."+parts[1], parts[2]
				}
				if have := members[typ]; have != nil && !have[member] {
					t.Errorf("%s names %s.%s, which is neither a field nor a method of %s", doc, typ, member, typ)
				}
			}
		}
	}
}

// moduleMembers parses the module's non-test Go outside bench/ and
// returns each declared type's field and method names, keyed by the
// type's name and by "pkg.Type". A struct's embedded fields contribute
// their own members, as Go promotes them.
func moduleMembers(t *testing.T) map[string]map[string]bool {
	t.Helper()
	members := map[string]map[string]bool{}
	embeds := map[string][]string{}
	add := func(keys []string, names ...string) {
		for _, k := range keys {
			if members[k] == nil {
				members[k] = map[string]bool{}
			}
			for _, n := range names {
				members[k][n] = true
			}
		}
	}
	typeName := func(e ast.Expr) string {
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.Sel
			case *ast.Ident:
				return x.Name
			default:
				return ""
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		keys := func(name string) []string { return []string{name, f.Name.Name + "." + name} }
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv != nil {
					add(keys(typeName(decl.Recv.List[0].Type)), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					add(keys(ts.Name.Name))
					var fields *ast.FieldList
					switch x := ts.Type.(type) {
					case *ast.StructType:
						fields = x.Fields
					case *ast.InterfaceType:
						fields = x.Methods
					default:
						continue
					}
					for _, fl := range fields.List {
						if len(fl.Names) == 0 {
							emb := typeName(fl.Type)
							add(keys(ts.Name.Name), emb)
							for _, k := range keys(ts.Name.Name) {
								embeds[k] = append(embeds[k], emb)
							}
						}
						for _, n := range fl.Names {
							add(keys(ts.Name.Name), n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Promote embedded members, to a fixed point (embedding chains are
	// short).
	for changed := true; changed; {
		changed = false
		for k, embs := range embeds {
			for _, e := range embs {
				for n := range members[e] {
					if !members[k][n] {
						members[k][n], changed = true, true
					}
				}
			}
		}
	}
	return members
}
