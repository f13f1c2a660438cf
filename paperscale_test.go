package bookleaf

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The paper's problem size: a 1024×1024 mesh, about Table II's million
// elements, stepped a fixed number of times.
const paperScaleN, paperScaleSteps = 1024, 5

// paperScaleKernels are the columns of the row TestPaperScale prints:
// the eight Table II kernels and the halo exchanges.
var paperScaleKernels = []string{"getq", "getforce", "getacc", "getdt", "getgeom", "getrho", "getein", "getpc", "comms"}

// TestPaperScale (make paper-scale; tier 2, under a minute and up to
// ~1 GB) runs Sod on the paper-size mesh, Hilbert-reordered and unfused
// so the per-kernel timers give Table II's breakdown, at one and at two
// ranks. Each rank count runs in a fresh process, this test binary run
// again, so each reads its own peak RSS (VmHWM). It logs one markdown
// row per rank count: wall time of the run, peak RSS, peak RSS per
// element, and each kernel's share of the kernel time.
func TestPaperScale(t *testing.T) {
	if os.Getenv("BOOKLEAF_PAPER_SCALE") == "" {
		t.Skip("set BOOKLEAF_PAPER_SCALE=1 (make paper-scale) to run the paper-size problem")
	}
	if r := os.Getenv("BOOKLEAF_PAPER_SCALE_RANKS"); r != "" {
		ranks, err := strconv.Atoi(r)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Println(paperScaleRow(t, ranks))
		return
	}
	var rows strings.Builder
	fmt.Fprintf(&rows, "| problem | ranks | steps | wall s | peak RSS MiB | B/el |")
	for _, k := range paperScaleKernels {
		fmt.Fprintf(&rows, " %s |", k)
	}
	fmt.Fprintf(&rows, "\n|---|---:|---:|---:|---:|---:|%s\n", strings.Repeat("---:|", len(paperScaleKernels)))
	row := regexp.MustCompile(`(?m)^\| sod .*$`)
	for _, ranks := range []int{1, 2} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestPaperScale$", "-test.count=1")
		cmd.Env = append(os.Environ(), "BOOKLEAF_PAPER_SCALE_RANKS="+strconv.Itoa(ranks))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("ranks=%d: %v\n%s", ranks, err, out)
		}
		r := row.Find(out)
		if r == nil {
			t.Fatalf("ranks=%d printed no row:\n%s", ranks, out)
		}
		rows.Write(r)
		rows.WriteByte('\n')
	}
	t.Logf("paper scale, %d×%d Sod, hilbert, unfused:\n%s", paperScaleN, paperScaleN, rows.String())
}

// paperScaleRow runs the paper-size problem at the given rank count and
// returns its markdown row.
func paperScaleRow(t *testing.T, ranks int) string {
	cfg := Config{
		Problem: "sod", NX: paperScaleN, NY: paperScaleN, Ranks: ranks,
		Reorder: "hilbert", NoFuse: true, MaxSteps: paperScaleSteps,
	}
	start := time.Now()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	peak := peakRSSBytes(t)
	var total float64
	for _, sec := range res.Timers {
		total += sec
	}
	var b strings.Builder
	fmt.Fprintf(&b, "| sod %d² | %d | %d | %.2f | %.0f | %.0f |", paperScaleN, ranks, res.Steps, wall.Seconds(),
		float64(peak)/(1<<20), float64(peak)/float64(res.NEl))
	for _, k := range paperScaleKernels {
		fmt.Fprintf(&b, " %.1f %% |", 100*res.Timers[k]/total)
	}
	return b.String()
}

// peakRSSBytes reads VmHWM, the process's resident-set high-water mark,
// from /proc/self/status.
func peakRSSBytes(t *testing.T) int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no peak RSS on this system: %v", err)
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(string(rest)), " kB"), 10, 64)
			if err != nil {
				t.Fatalf("VmHWM %q: %v", rest, err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmHWM line in /proc/self/status")
	return 0
}
