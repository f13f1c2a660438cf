package bookleaf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// shapeToolchain is the compiler the list below was read from. The
// inliner's cost model changes between releases, so another toolchain
// asks for a re-baseline instead of failing.
const shapeToolchain = "go1.24.0"

// shapeInlined lists, per package, the scalar helpers the per-element
// sweeps are built from. Each is called several times per element with
// its operands in registers; one that crosses the inliner's budget
// becomes an out-of-line call per edge, which has cost a fifth of a
// kernel before (EXPERIMENTS.md, PR 16) with every test still green.
// hydro's pressureCsq is not here: inlining its two ideal-gas forms puts
// it at cost 208, and it is one call per element, not per edge.
var shapeInlined = map[string][]string{
	"./internal/ale": {
		"sweptArea", "avg4", "upwind", "bjLimit", "subFace",
		"(*Remapper).stageEdge", "(*Remapper).reconRho", "(*Remapper).reconEin",
	},
	"./internal/hydro": {
		"compressive", "(*State).nbProj", "limit", "edgeVisc", "gradForce",
		"subzonalDp", "subzonalPush", "(*State).cornerWork",
	},
	"./internal/geom": {"QuadArea", "len2", "longer"},
}

// shapeBoundsChecks lists, per package, the per-element bodies of the
// hot sweeps with the bounds checks the compiler leaves in each: the
// -d=ssa/check_bce/debug=1 reports whose position lies in the body's
// source (a helper inlined into it reports at its call site). A check
// is a compare and a branch per element, and an index-type edit can add
// several without changing a result. A count above the list fails; so
// does one below it, until the list is lowered to match, which keeps
// the list exact.
var shapeBoundsChecks = map[string]map[string]int{
	"./internal/hydro": {
		"qforceBody": 6, "elemQ": 7, "elemForce": 6, "updateBody": 14, "cflDivOperand": 3, "accBody": 5,
	},
	"./internal/ale": {
		"gradRange": 26, "subFaceEl": 31, "faceGatherRange": 16, "momGatherRange": 16,
	},
}

// TestCompilerShape (make shape; tier 2, it shells out to the compiler)
// asserts that every helper on the list is still within the inliner's
// budget, naming the cost of one that is not, and that no listed body
// carries more bounds checks than shapeBoundsChecks allows.
func TestCompilerShape(t *testing.T) {
	if os.Getenv("BOOKLEAF_SHAPE") == "" {
		t.Skip("set BOOKLEAF_SHAPE=1 (make shape) to check the compiler shape of the hot helpers")
	}
	if v := runtime.Version(); v != shapeToolchain {
		t.Skipf("helper list was read from %s, this is %s: re-baseline shapeInlined, shapeBoundsChecks and shapeToolchain", shapeToolchain, v)
	}
	for pkg, want := range shapeBoundsChecks {
		got := boundsChecks(t, pkg)
		for body, n := range want {
			c, ok := got[body]
			switch {
			case !ok:
				t.Errorf("%s: no function %s (renamed or removed?)", pkg, body)
			case c > n:
				t.Errorf("%s: %s has %d bounds checks, the list allows %d", pkg, body, c, n)
			case c < n:
				t.Errorf("%s: %s has %d bounds checks, fewer than the %d listed: lower the list", pkg, body, c, n)
			}
		}
	}
	for pkg, helpers := range shapeInlined {
		out, err := exec.Command("go", "build", "-gcflags=-m=2", pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go build -gcflags=-m=2 %s: %v\n%s", pkg, err, out)
		}
		for _, h := range helpers {
			name := regexp.QuoteMeta(h)
			if regexp.MustCompile(`: can inline ` + name + ` with cost \d+ `).Match(out) {
				continue
			}
			if why := regexp.MustCompile(`: cannot inline ` + name + `: [^\n]*`).Find(out); why != nil {
				t.Errorf("%s: %s", pkg, why[2:])
			} else {
				t.Errorf("%s: the compiler did not report on %s (renamed or removed?)", pkg, h)
			}
		}
	}
}

// boundsChecks builds pkg with the compiler's bounds-check report and
// returns the number of reports inside each function of the package, by
// function name.
func boundsChecks(t *testing.T, pkg string) map[string]int {
	t.Helper()
	out, err := exec.Command("go", "build", "-gcflags=-d=ssa/check_bce/debug=1", pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-d=ssa/check_bce/debug=1 %s: %v\n%s", pkg, err, out)
	}
	// The source range of every function, by file; a function with no
	// report counts zero.
	type span struct {
		name     string
		from, to int
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, pkg, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]span{}
	counts := map[string]int{}
	for _, p := range pkgs {
		for path, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					funcs[path] = append(funcs[path], span{fd.Name.Name, fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line})
					counts[fd.Name.Name] += 0
				}
			}
		}
	}
	for _, m := range regexp.MustCompile(`(?m)^(\S+\.go):(\d+):\d+: Found Is(?:Slice)?InBounds$`).FindAllSubmatch(out, -1) {
		line, _ := strconv.Atoi(string(m[2]))
		for _, f := range funcs[string(m[1])] {
			if f.from <= line && line <= f.to {
				counts[f.name]++
			}
		}
	}
	return counts
}
