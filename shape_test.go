package bookleaf

import (
	"os"
	"os/exec"
	"regexp"
	"runtime"
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
		"compressive", "(*State).nbProj", "limit", "edgeVisc", "gradForce", "damp",
		"subzonalDp", "subzonalPush", "(*State).cornerWork",
	},
	"./internal/geom": {"QuadArea", "len2", "longer"},
}

// TestCompilerShape (make shape; tier 2, it shells out to the compiler)
// asserts that every helper on the list is still within the inliner's
// budget, naming the cost of one that is not.
func TestCompilerShape(t *testing.T) {
	if os.Getenv("BOOKLEAF_SHAPE") == "" {
		t.Skip("set BOOKLEAF_SHAPE=1 (make shape) to check the compiler shape of the hot helpers")
	}
	if v := runtime.Version(); v != shapeToolchain {
		t.Skipf("helper list was read from %s, this is %s: re-baseline shapeInlined and shapeToolchain", shapeToolchain, v)
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
