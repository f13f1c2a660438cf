package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildDaemon builds the command into a test temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bleaf-served")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running bleaf-served process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startDaemon starts the binary on a free loopback port over stateDir
// and returns once it has printed the address it bound.
func startDaemon(t *testing.T, bin, stateDir string) *daemon {
	t.Helper()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state-dir", stateDir, "-workers", "1")
	cmd.Stdout = pw
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		pr.Close()
	})
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("no start-up line: %v", err)
	}
	// The rest of standard output is drained so the daemon never blocks
	// on a full pipe.
	go io.Copy(io.Discard, pr)
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("start-up line names no address: %q", line)
	}
	addr := strings.Fields(line[i+len(marker):])[0]
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("start-up line names the requested port, not the bound one: %q", line)
	}
	d.base = "http://" + addr
	return d
}

// stop sends SIGTERM and requires a clean exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon did not exit cleanly on SIGTERM: %v", err)
	}
}

// get is GET base+path: the status code and the body bytes.
func (d *daemon) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServedResultSurvivesRestart drives the built daemon the way an
// operator does: submit a deck, fetch the result, stop it with SIGTERM,
// start it again on the same state directory, and fetch the result
// again. The second body must be byte-identical to the first.
func TestServedResultSurvivesRestart(t *testing.T) {
	bin := buildDaemon(t)
	dir := t.TempDir()
	d := startDaemon(t, bin, dir)

	deck := "[control]\nproblem = sod\nnx = 20\nny = 2\nmaxsteps = 10\n"
	resp, err := http.Post(d.base+"/v1/jobs", "text/plain", strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit answered %d (%v)", resp.StatusCode, err)
	}

	var body []byte
	for deadline := time.Now().Add(60 * time.Second); ; {
		code, b := d.get(t, "/v1/jobs/"+sub.ID)
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(b, &st); err != nil || code != http.StatusOK {
			t.Fatalf("GET answered %d: %s", code, b)
		}
		if st.State == "done" {
			body = b
			break
		}
		if st.State != "queued" && st.State != "running" {
			t.Fatalf("job ended %s: %s", st.State, b)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not done after a minute: %s", b)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !bytes.Contains(body, []byte(`"rho":[`)) {
		t.Fatalf("done job serves no result: %s", body)
	}
	d.stop(t)

	d2 := startDaemon(t, bin, dir)
	code, again := d2.get(t, "/v1/jobs/"+sub.ID)
	if code != http.StatusOK || !bytes.Equal(again, body) {
		t.Fatalf("GET after the restart (%d) differs:\nbefore %.300s\nafter  %.300s", code, body, again)
	}
	d2.stop(t)
}

// TestRemovedFlagFailsLoudly: -snapshot-every is gone (the mid-run
// metrics cadence is a constant), so the flag package rejects it with
// exit status 2 before anything is served.
func TestRemovedFlagFailsLoudly(t *testing.T) {
	bin := buildDaemon(t)
	cmd := exec.Command(bin, "-snapshot-every", "8", "-addr", "127.0.0.1:0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("-snapshot-every: err %v, want exit status 2\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -snapshot-every") {
		t.Errorf("stderr %q does not name the unknown flag", stderr.String())
	}
}
