package bookleaf_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryProgramHasASmokeTest walks the module (bench/ is a module of
// its own) and fails for any package main directory without a _test.go
// that builds the directory with `go build` and executes what it built:
// a program no test runs is one that only compiles.
func TestEveryProgramHasASmokeTest(t *testing.T) {
	builds := regexp.MustCompile(`exec\.Command\("go", "build"`)
	runsBinary := regexp.MustCompile(`exec\.Command\([a-z]\w*[,)]`)
	programs := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		srcs, _ := filepath.Glob(filepath.Join(path, "*.go"))
		isMain, smoke := false, false
		for _, src := range srcs {
			if strings.HasSuffix(src, "_test.go") {
				text, err := os.ReadFile(src)
				if err != nil {
					return err
				}
				smoke = smoke || builds.Match(text) && runsBinary.Match(text)
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), src, nil, parser.PackageClauseOnly)
			if err != nil {
				return err
			}
			isMain = isMain || f.Name.Name == "main"
		}
		if isMain {
			programs++
			if !smoke {
				t.Errorf("%s is a program no test builds and runs", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if programs == 0 {
		t.Fatal("found no package main under the module")
	}
}
