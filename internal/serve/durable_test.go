package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"bookleaf"
	"bookleaf/internal/machine"
)

// Restart-recovery battery for the durable server. The crash is
// simulated by cloning the state directory while the first server is
// live — the clone is taken under the scheduler mutex, which every
// journal append and snapshot spill also holds, so it is exactly the
// on-disk state an abrupt kill at that instant would leave — and then
// opening a second server over the clone. The load-bearing assertion
// is the same one the preemption tests make: a recovered run must be
// bitwise identical to an uninterrupted run of the same deck.

// cloneStateDir copies dir's files into a fresh temp dir under s.mu,
// freezing a crash-consistent image of the journal and spills.
func cloneStateDir(t *testing.T, s *Server, dir string) string {
	t.Helper()
	clone := t.TempDir()
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(clone, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return clone
}

// assertResultBitwise checks what s serves of done job j — its result
// (clock, audit scalars and the seven fields) and its merged obs
// counters — against a direct run, bitwise.
func assertResultBitwise(t *testing.T, s *Server, j *Job, want *bookleaf.Result) {
	t.Helper()
	got, err := s.result(j)
	if got == nil {
		t.Fatalf("no result (%v)", err)
	}
	assertFieldsBitwise(t, got, want)
	sn := s.Metrics(j)
	for _, name := range deterministicCounters {
		if sn == nil || want.Obs == nil {
			t.Fatal("missing obs snapshot")
		}
		if g, r := sn.Counters[name], want.Obs.Counters[name]; g != r {
			t.Fatalf("counter %s = %d, direct run %d (legs merged wrong?)", name, g, r)
		}
	}
}

// waitProgress polls until the job is running and past minStep.
func waitProgress(t *testing.T, s *Server, j *Job, minStep int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := s.Status(j)
		if st.State == StateRunning && st.Step >= minStep {
			return
		}
		if st.State == StateDone || st.State == StateFailed || st.State == StateCanceled {
			t.Fatalf("job reached %q before making progress", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDurableCrashMidRunResumesBitwise is the acceptance core: a
// daemon crashes while a job runs (after at least one periodic spill),
// a fresh daemon opens the same state dir, and the job completes from
// its last spilled snapshot with a result — field arrays and merged
// obs counters — bitwise identical to an uninterrupted run. Both the
// serial and the ranks=2 (partition-independent snapshot) paths.
func TestDurableCrashMidRunResumesBitwise(t *testing.T) {
	for _, tc := range []struct {
		name, deck string
	}{
		{"serial", "[control]\nproblem = sod\nnx = 400\nny = 4\ntend = 0.25\n"},
		{"ranks2", "[control]\nproblem = sod\nnx = 400\nny = 4\ntend = 0.25\nranks = 2\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := directRun(t, tc.deck)
			dir := t.TempDir()
			s, err := Open(Options{
				Workers: 1, Threads: 1, StateDir: dir,
				SpillInterval: 25 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			j, err := s.Submit(strings.NewReader(tc.deck), 0, "alice")
			if err != nil {
				t.Fatal(err)
			}
			// Wait for the periodic spill to have parked-and-resumed the
			// job at least once: the clone must carry a mid-run snapshot.
			deadline := time.Now().Add(60 * time.Second)
			for s.Status(j).Preemptions < 1 {
				if st := s.Status(j); st.State == StateDone {
					t.Skip("machine too fast: job finished before the first spill")
				}
				if time.Now().After(deadline) {
					t.Fatalf("no spill happened: %+v", s.Status(j))
				}
				time.Sleep(time.Millisecond)
			}
			clone := cloneStateDir(t, s, dir)
			s.Close() // the first daemon is dead to us; end its legs

			s2, err := Open(Options{
				Workers: 1, Threads: 1, StateDir: clone, SpillInterval: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			j2, ok := s2.Get(j.ID)
			if !ok {
				t.Fatalf("job %s lost across the crash", j.ID)
			}
			if j2.Client != "alice" {
				t.Fatalf("client %q lost across the crash", j2.Client)
			}
			<-j2.Done()
			if st := s2.Status(j2); st.State != StateDone {
				t.Fatalf("recovered job ended %q (%s)", st.State, st.Error)
			} else if st.Preemptions < 1 {
				t.Fatalf("recovered job reports %d preemptions, expected the spill to count", st.Preemptions)
			}
			assertResultBitwise(t, s2, j2, want)
		})
	}
}

// TestDurableRestartQueuedJobs: a crash with one job running (no spill
// yet) and two queued. All three must survive into the new daemon and
// complete bitwise — the running one restarted from scratch, the
// queued ones in their journaled order.
func TestDurableRestartQueuedJobs(t *testing.T) {
	decks := []string{
		"[control]\nproblem = sod\nnx = 400\nny = 4\ntend = 0.25\n",
		"[control]\nproblem = sod\nnx = 60\nny = 4\nmaxsteps = 40\n",
		"[control]\nproblem = sod\nnx = 60\nny = 4\nmaxsteps = 50\n",
	}
	want := make([]*bookleaf.Result, len(decks))
	for i, d := range decks {
		want[i] = directRun(t, d)
	}
	dir := t.TempDir()
	s, err := Open(Options{Workers: 1, Threads: 1, StateDir: dir, SpillInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*Job, len(decks))
	for i, d := range decks {
		if jobs[i], err = s.Submit(strings.NewReader(d), 0, ""); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Status(jobs[2]); st.State != StateQueued {
		t.Fatalf("third job is %q, wanted a queued crash victim", st.State)
	}
	clone := cloneStateDir(t, s, dir)
	s.Close()

	s2, err := Open(Options{Workers: 1, Threads: 1, StateDir: clone, SpillInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, j := range jobs {
		j2, ok := s2.Get(j.ID)
		if !ok {
			t.Fatalf("job %d (%s) lost across the crash", i, j.ID)
		}
		<-j2.Done()
		if st := s2.Status(j2); st.State != StateDone {
			t.Fatalf("job %d ended %q (%s)", i, st.State, st.Error)
		}
		assertResultBitwise(t, s2, j2, want[i])
	}
}

// TestDurableGracefulShutdownParks: Close on a durable server is a
// park, not a massacre — the running job is preempted and spilled, the
// queued job stays journaled, and the next Open resumes both to
// bitwise-correct completion.
func TestDurableGracefulShutdownParks(t *testing.T) {
	runDeck := "[control]\nproblem = sod\nnx = 400\nny = 4\ntend = 0.25\n"
	queueDeck := "[control]\nproblem = sod\nnx = 60\nny = 4\nmaxsteps = 40\n"
	wantRun := directRun(t, runDeck)
	wantQueue := directRun(t, queueDeck)

	dir := t.TempDir()
	s, err := Open(Options{Workers: 1, Threads: 1, StateDir: dir, SpillInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(strings.NewReader(runDeck), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Submit(strings.NewReader(queueDeck), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, s, j, 10)
	s.Close()
	// The park is observable: the job is still live (queued, not
	// canceled) and its snapshot sits on disk.
	if st := s.Status(j); st.State != StateQueued {
		t.Fatalf("running job ended %q on durable Close, want parked (queued)", st.State)
	}
	if _, err := os.Stat(filepath.Join(dir, j.ID+snapSuffix)); err != nil {
		t.Fatalf("no spilled snapshot after graceful shutdown: %v", err)
	}

	s2, err := Open(Options{Workers: 1, Threads: 1, StateDir: dir, SpillInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, tc := range []struct {
		id   string
		want *bookleaf.Result
	}{{j.ID, wantRun}, {q.ID, wantQueue}} {
		j2, ok := s2.Get(tc.id)
		if !ok {
			t.Fatalf("job %s lost across graceful restart", tc.id)
		}
		<-j2.Done()
		if st := s2.Status(j2); st.State != StateDone {
			t.Fatalf("job %s ended %q (%s)", tc.id, st.State, st.Error)
		}
		assertResultBitwise(t, s2, j2, tc.want)
	}
	if st := s2.Status(mustGet(t, s2, j.ID)); st.Preemptions < 1 {
		t.Fatalf("parked job reports %d preemptions", st.Preemptions)
	}
}

// TestDurableV3SpillRestartsFromScratch: a spill file from a build that
// wrote format v3 does not resume. The restarted daemon runs its job
// again from t = 0, and the job still completes bitwise a direct run.
func TestDurableV3SpillRestartsFromScratch(t *testing.T) {
	deck := "[control]\nproblem = sod\nnx = 400\nny = 4\ntend = 0.25\n"
	want := directRun(t, deck)
	dir := t.TempDir()
	s, err := Open(Options{Workers: 1, Threads: 1, StateDir: dir, SpillInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(strings.NewReader(deck), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, s, j, 10)
	s.Close()
	spill := filepath.Join(dir, j.ID+snapSuffix)
	sn, err := readSnapFile(spill)
	if err != nil {
		t.Fatalf("no spill after graceful shutdown: %v", err)
	}
	sn.Version = 3
	var buf bytes.Buffer
	if err := sn.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spill, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Workers: 1, Threads: 1, StateDir: dir, SpillInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j2 := mustGet(t, s2, j.ID)
	<-j2.Done()
	// A resumed job carries its preemption over; a restarted one has none.
	if st := s2.Status(j2); st.State != StateDone || st.Preemptions != 0 {
		t.Fatalf("job ended %q (%s) with %d preemptions, want done from scratch", st.State, st.Error, st.Preemptions)
	}
	assertResultBitwise(t, s2, j2, want)
}

func mustGet(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	j, ok := s.Get(id)
	if !ok {
		t.Fatalf("job %s missing", id)
	}
	return j
}

// getRaw is GET /v1/jobs/{id} on s's handler: the status code and the
// exact body bytes.
func getRaw(t *testing.T, s *Server, id string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
	return rec.Code, rec.Body.Bytes()
}

// TestDurableCalibrationAndTerminalSurviveRestart: the calibrator's
// learned scale and finished jobs both outlive the daemon. A done job
// serves its result from its <id>.res file, so after the restart the
// result is bitwise the one served before it (fields, scalars and
// deterministic obs counters, all bitwise a direct run's) and the GET
// body is byte-identical.
func TestDurableCalibrationAndTerminalSurviveRestart(t *testing.T) {
	deck := "[control]\nproblem = sod\nnx = 40\nny = 4\nmaxsteps = 10\n"
	dir := t.TempDir()
	s, err := Open(Options{Workers: 1, Threads: 1, StateDir: dir, SpillInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(strings.NewReader(deck), 0, "carol")
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	st0 := s.Stats()
	if st0.CalibrationN != 1 || !(st0.CalibrationScale > 0) {
		t.Fatalf("no calibration after completion: %+v", st0)
	}
	want := directRun(t, deck)
	assertResultBitwise(t, s, j, want)
	code, body0 := getRaw(t, s, j.ID)
	if code != http.StatusOK || !bytes.Contains(body0, []byte(`"rho":[`)) {
		t.Fatalf("GET before the restart: %d %s", code, body0)
	}
	s.Close()

	s2, err := Open(Options{Workers: 1, Threads: 1, StateDir: dir, SpillInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st1 := s2.Stats()
	if st1.CalibrationScale != st0.CalibrationScale || st1.CalibrationN != st0.CalibrationN {
		t.Fatalf("calibration did not survive the restart: %+v vs %+v", st1, st0)
	}
	j2, ok := s2.Get(j.ID)
	if !ok {
		t.Fatal("terminal job evicted by the restart")
	}
	st := s2.Status(j2)
	if st.State != StateDone || st.Client != "carol" || st.Error != "" {
		t.Fatalf("terminal job recovered wrong: %+v", st)
	}
	assertResultBitwise(t, s2, j2, want)
	if code, body1 := getRaw(t, s2, j.ID); code != http.StatusOK || !bytes.Equal(body1, body0) {
		t.Fatalf("GET body changed across the restart (%d):\nbefore %.300s\nafter  %.300s", code, body0, body1)
	}
	// And the next submission is priced with the restored scale.
	raw := machine.PredictRun(machine.RunShape{
		Problem: "sod", NX: 40, NY: 4, MaxSteps: 10, Threads: 1,
	})
	j3, err := s2.Submit(strings.NewReader(deck), 0, "carol")
	if err != nil {
		t.Fatal(err)
	}
	scaled := raw.Seconds * st0.CalibrationScale
	if math.Abs(j3.Est.Seconds-scaled)/scaled > 1e-9 {
		t.Fatalf("post-restart estimate %g, want model %g x restored scale %g",
			j3.Est.Seconds, raw.Seconds, st0.CalibrationScale)
	}
	<-j3.Done()
}

// TestDurableJournalCorruptionRecovery: garbage appended to a valid
// journal — a torn final line is the realistic case — must cost
// nothing: Open succeeds and every journaled job recovers and runs.
func TestDurableJournalCorruptionRecovery(t *testing.T) {
	decks := []string{
		"[control]\nproblem = sod\nnx = 60\nny = 4\nmaxsteps = 40\n",
		"[control]\nproblem = sod\nnx = 60\nny = 4\nmaxsteps = 50\n",
	}
	want := make([]*bookleaf.Result, len(decks))
	for i, d := range decks {
		want[i] = directRun(t, d)
	}
	dir := t.TempDir()
	s, err := Open(Options{
		Workers: 1, Threads: 1, StateDir: dir, SpillInterval: -1,
		// A long head job keeps the two victims safely queued (never
		// started) until the clone.
	})
	if err != nil {
		t.Fatal(err)
	}
	head, err := s.Submit(strings.NewReader("[control]\nproblem = sod\nnx = 400\nny = 4\ntend = 0.25\n"), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	_ = head
	jobs := make([]*Job, len(decks))
	for i, d := range decks {
		if jobs[i], err = s.Submit(strings.NewReader(d), 0, ""); err != nil {
			t.Fatal(err)
		}
	}
	clone := cloneStateDir(t, s, dir)
	s.Close()

	// Corrupt the clone: a torn JSON line, plain garbage, and a record
	// with an op nobody knows.
	jp := filepath.Join(clone, journalName)
	f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, `{"op":"submit","id":"j9","se`+"\n")
	io.WriteString(f, "complete garbage \x00\x01\n")
	io.WriteString(f, `{"op":"timewarp","id":"j000002"}`+"\n")
	f.Close()

	s2, err := Open(Options{Workers: 1, Threads: 1, StateDir: clone, SpillInterval: -1})
	if err != nil {
		t.Fatalf("Open failed on a corrupt journal: %v", err)
	}
	defer s2.Close()
	for i, j := range jobs {
		j2, ok := s2.Get(j.ID)
		if !ok {
			t.Fatalf("job %d lost to unrelated corruption", i)
		}
		<-j2.Done()
		if st := s2.Status(j2); st.State != StateDone {
			t.Fatalf("job %d ended %q (%s)", i, st.State, st.Error)
		}
		assertResultBitwise(t, s2, j2, want[i])
	}

	// Truncating the journal mid-file is also survivable: Open keeps the
	// parseable prefix and never errors.
	b, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	dir3 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir3, journalName), b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Options{Workers: 1, AdmitOnly: true, StateDir: dir3, SpillInterval: -1})
	if err != nil {
		t.Fatalf("Open failed on a truncated journal: %v", err)
	}
	s3.Close()
}

// TestDurableJournalSealedRecords: every journal line carries the
// CRC-32C of its record. A digit flipped in a journaled estimate leaves
// a record that still parses, and replay must skip it rather than
// re-admit a different job; the line as written replays.
func TestDurableJournalSealedRecords(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJournalFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	deck := []byte("[control]\nproblem = sod\nnx = 40\nny = 4\n")
	if err := jl.append(&journalRecord{Op: opSubmit, ID: "j000001", Seq: 1, Deck: deck, EstSeconds: 0.5}); err != nil {
		t.Fatal(err)
	}
	jl.close()
	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st := replayJournal(dir)
	if rj := st.jobs["j000001"]; st.skipped != 0 || rj == nil || rj.EstSeconds != 0.5 || !bytes.Equal(rj.Deck, deck) {
		t.Fatalf("the sealed record did not replay as written (skipped %d): %+v", st.skipped, rj)
	}
	flipped := bytes.Replace(b, []byte(`"est_seconds":0.5`), []byte(`"est_seconds":0.6`), 1)
	if bytes.Equal(flipped, b) {
		t.Fatalf("no estimate to flip in %q", b)
	}
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if st := replayJournal(dir); len(st.jobs) != 0 || st.skipped != 1 {
		t.Fatalf("a flipped digit replayed %d jobs and skipped %d lines, want 0 and 1", len(st.jobs), st.skipped)
	}
}

// journalRecords parses a journal's sealed lines, failing on any line
// that does not unseal and parse.
func journalRecords(t *testing.T, journal []byte) []*journalRecord {
	t.Helper()
	var recs []*journalRecord
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		body, ok := unseal(line)
		rec := &journalRecord{}
		if !ok || json.Unmarshal(body, rec) != nil {
			t.Fatalf("journal line %q does not unseal and parse", line)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestDurableOneLegJobJournalsTwoLines: a job that runs in one leg
// journals its submit line and its done line and nothing else, and the
// done line carries the calibrator's state after the job's observation.
func TestDurableOneLegJobJournalsTwoLines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Workers: 1, Threads: 1, StateDir: dir, SpillInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit(strings.NewReader("[control]\nproblem = sod\nnx = 40\nny = 4\nmaxsteps = 10\n"), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	b, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	recs := journalRecords(t, b)
	if len(recs) != 2 || recs[0].Op != opSubmit || recs[1].Op != StateDone {
		t.Fatalf("a one-leg job journaled %d lines:\n%s", len(recs), b)
	}
	st := s.Stats()
	if done := recs[1]; done.N < 1 || done.N != st.CalibrationN || done.Scale != st.CalibrationScale {
		t.Fatalf("done line carries calibration %g/%d, the calibrator holds %g/%d",
			done.Scale, done.N, st.CalibrationScale, st.CalibrationN)
	}
}

// parentFormat rewrites a journal as builds before the done line
// carried the calibration wrote it: a start line after each submit, and
// a done line's calibration in a calib line of its own before it.
func parentFormat(t *testing.T, journal []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, rec := range journalRecords(t, journal) {
		if rec.N > 0 {
			writeRecord(&out, &journalRecord{Op: opCalib, Scale: rec.Scale, N: rec.N})
			rec.Scale, rec.N = 0, 0
		}
		writeRecord(&out, rec)
		if rec.Op == opSubmit {
			writeRecord(&out, &journalRecord{Op: "start", ID: rec.ID, Seq: rec.Seq})
		}
	}
	return out.Bytes()
}

// TestDurableParentFormatJournalReplays: a journal in the older format,
// with start lines and calib lines, replays to the same jobs, spill and
// calibration as the journal this build writes. The crash image holds a
// done job (whose line carries the calibration) and a job evicted by it
// (whose spill is journaled); both images recover the same done status
// and calibration, and resume the spilled job to a bitwise result.
func TestDurableParentFormatJournalReplays(t *testing.T) {
	runDeck := "[control]\nproblem = sod\nnx = 400\nny = 4\ntend = 0.25\n"
	nohDeck := "[control]\nproblem = noh\nnx = 24\nny = 24\nmaxsteps = 60\n"
	want := directRun(t, runDeck)
	dir := t.TempDir()
	s, err := Open(Options{Workers: 1, Threads: 1, StateDir: dir, SpillInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.Submit(strings.NewReader(runDeck), 0, "alice")
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, s, x, 10)
	y, err := s.Submit(strings.NewReader(nohDeck), 10, "bob")
	if err != nil {
		t.Fatal(err)
	}
	<-y.Done()
	clone := cloneStateDir(t, s, dir)
	if s.Status(x).State == StateDone {
		s.Close()
		t.Skip("machine too fast: the evicted job finished before the crash image")
	}
	yStatus, cal := s.Status(y), s.Stats()
	s.Close()

	old := t.TempDir()
	ents, err := os.ReadDir(clone)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(clone, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == journalName {
			b = parentFormat(t, b)
		}
		if err := os.WriteFile(filepath.Join(old, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if st := replayJournal(old); st.skipped != 0 || len(st.jobs) != 2 {
		t.Fatalf("the older format replayed %d jobs and skipped %d lines, want 2 and 0", len(st.jobs), st.skipped)
	}
	for _, d := range []string{clone, old} {
		s2, err := Open(Options{Workers: 1, Threads: 1, StateDir: d, SpillInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		if st := s2.Stats(); st.CalibrationScale != cal.CalibrationScale || st.CalibrationN != cal.CalibrationN {
			t.Fatalf("%s: calibration %g/%d, want %g/%d", filepath.Base(d),
				st.CalibrationScale, st.CalibrationN, cal.CalibrationScale, cal.CalibrationN)
		}
		if st := s2.Status(mustGet(t, s2, y.ID)); st != yStatus {
			t.Fatalf("%s: done job recovered as %+v, want %+v", filepath.Base(d), st, yStatus)
		}
		x2 := mustGet(t, s2, x.ID)
		<-x2.Done()
		if st := s2.Status(x2); st.State != StateDone || st.Preemptions < 1 || st.Client != "alice" {
			t.Fatalf("%s: spilled job ended %+v, want done resumed from its spill", filepath.Base(d), st)
		}
		assertResultBitwise(t, s2, x2, want)
		s2.Close()
	}
}

// TestDurableOpenCloseKeepSpillFiles: a spill already on disk stays as
// it is — compaction writes a snapshot only for a job that names no
// spill file. A job parked behind a higher-priority one keeps the same
// .ckpt file through a Close, an Open and a second Close.
func TestDurableOpenCloseKeepSpillFiles(t *testing.T) {
	runDeck := "[control]\nproblem = sod\nnx = 400\nny = 4\ntend = 0.25\n"
	longDeck := "[control]\nproblem = noh\nnx = 50\nny = 50\ntend = 0.6\n"
	opt := Options{Workers: 1, Threads: 1, StateDir: t.TempDir(), SpillInterval: -1}
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.Submit(strings.NewReader(runDeck), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, s, x, 10)
	if _, err := s.Submit(strings.NewReader(longDeck), 10, ""); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for st := s.Status(x); st.State != StateQueued || st.Preemptions < 1; st = s.Status(x) {
		if st.State == StateDone || time.Now().After(deadline) {
			t.Fatalf("the low-priority job was not evicted: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	spill := filepath.Join(opt.StateDir, x.ID+snapSuffix)
	fi0, err := os.Stat(spill)
	if err != nil {
		t.Fatalf("no spill for the evicted job: %v", err)
	}
	same := func(when string) {
		t.Helper()
		fi, err := os.Stat(spill)
		if err != nil || !os.SameFile(fi0, fi) {
			t.Fatalf("%s rewrote the spill of a parked job (%v)", when, err)
		}
	}
	s.Close()
	same("Close")
	s2, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	same("Open")
	if st := s2.Status(mustGet(t, s2, x.ID)); st.State != StateQueued || st.Preemptions < 1 {
		t.Fatalf("the parked job recovered as %+v, want queued with its spill", st)
	}
	s2.Close()
	same("a second Close")
}

// TestDurableForeignSpillRestartsFromScratch: a spill record is trusted
// only under the name <id>.ckpt. A sealed record that names another
// job's checkpoint must not resume this job from that job's state: the
// job restarts from scratch and completes bitwise a direct run.
func TestDurableForeignSpillRestartsFromScratch(t *testing.T) {
	runDeck := "[control]\nproblem = sod\nnx = 400\nny = 4\ntend = 0.25\n"
	queueDeck := "[control]\nproblem = sod\nnx = 400\nny = 4\nmaxsteps = 40\n"
	want := directRun(t, queueDeck)
	opt := Options{Workers: 1, Threads: 1, StateDir: t.TempDir(), SpillInterval: -1}
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.Submit(strings.NewReader(runDeck), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Submit(strings.NewReader(queueDeck), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, s, x, 10)
	s.Close() // parks x with a spill; q stays queued without one
	if _, err := os.Stat(filepath.Join(opt.StateDir, x.ID+snapSuffix)); err != nil {
		t.Fatalf("no spill for the parked job: %v", err)
	}
	jl, err := openJournalFile(opt.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	err = jl.append(&journalRecord{Op: opSpill, ID: q.ID, Snap: x.ID + snapSuffix, Step: 10, Preemptions: 1})
	jl.close()
	if err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	q2 := mustGet(t, s2, q.ID)
	<-q2.Done()
	if st := s2.Status(q2); st.State != StateDone || st.Preemptions != 0 {
		t.Fatalf("job ended %q (%s) with %d preemptions, want done from scratch", st.State, st.Error, st.Preemptions)
	}
	assertResultBitwise(t, s2, q2, want)
}

// TestDurableSpillCadence: the periodic spill counts from the start of
// each leg, so the first leg's spill is asked for one SpillInterval
// after the submit and the resumed leg's one SpillInterval after it
// resumes, not at some later tick of a server-wide clock.
func TestDurableSpillCadence(t *testing.T) {
	const interval = 200 * time.Millisecond
	s, err := Open(Options{Workers: 1, Threads: 1, StateDir: t.TempDir(), SpillInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	t0 := time.Now()
	j, err := s.Submit(strings.NewReader("[control]\nproblem = sod\nnx = 4000\nny = 8\ntend = 0.25\n"), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	// start[l] is when the poll first saw leg l running (no earlier than
	// it began), ask[l] when it first saw leg l ask for its spill (no
	// later than it asked).
	var start, ask [3]time.Duration
	for leg := 0; leg < 2; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		asked, n, state := j.preemptAsked, j.preemptions, j.state
		s.mu.Unlock()
		now := time.Since(t0)
		if state != StateQueued && state != StateRunning {
			t.Fatalf("job ended %q before its second spill", state)
		}
		if now > 20*interval {
			t.Fatalf("%d spills in %v", n, now)
		}
		if n > leg {
			// The leg spilled and, under the same lock, the next one began.
			if ask[leg] == 0 {
				ask[leg] = now
			}
			leg, start[n] = n, now
		}
		if asked && ask[leg] == 0 {
			ask[leg] = now
		}
	}
	if d := ask[0]; d < interval || d >= interval*3/2 {
		t.Errorf("first spill asked %v after submit, want within [1, 1.5) x %v", d, interval)
	}
	if d := ask[1] - start[1]; d >= interval*3/2 {
		t.Errorf("resumed leg asked to spill %v after it began, want under 1.5 x %v", d, interval)
	}
}

// TestDurableRejectedSubmitKeepsFairTag: a submit the journal cannot
// record is rejected whole — it takes no sequence number and charges
// its client no fair-queue time, so the client's next job does not
// queue behind one that was never admitted.
func TestDurableRejectedSubmitKeepsFairTag(t *testing.T) {
	s, err := Open(Options{Workers: 1, AdmitOnly: true, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Submit(strings.NewReader(admitDeck), 0, "alice"); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.jl.f.Close() // every later append fails
	vtime, seq := maps.Clone(s.clientVTime), s.seq
	s.mu.Unlock()
	if _, err := s.Submit(strings.NewReader(admitDeck), 0, "alice"); err == nil {
		t.Fatal("submit admitted with an unwritable journal")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !maps.Equal(s.clientVTime, vtime) || s.seq != seq {
		t.Fatalf("rejected submit moved the client's virtual time %v -> %v or the sequence %d -> %d",
			vtime, s.clientVTime, seq, s.seq)
	}
}

// TestClientQuotaTyped429: a client at its backlog quota is rejected
// with *QuotaError — carrying a positive Retry-After — while another
// client's identical deck still admits, and the global overload error
// stays distinct.
func TestClientQuotaTyped429(t *testing.T) {
	longDeck := "[control]\nproblem = noh\nnx = 50\nny = 50\ntend = 0.6\n"
	longEst := machine.PredictRun(machine.RunShape{
		Problem: "noh", NX: 50, NY: 50, TEnd: 0.6, Threads: 1,
	})
	smallEst := admitEst(1)
	quota := longEst.Seconds + smallEst.Seconds/2

	s, err := Open(Options{
		Workers: 1, Threads: 1, BudgetSeconds: 1e9,
		ClientBudgetSeconds: quota,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	long, err := s.Submit(strings.NewReader(longDeck), 0, "alice")
	if err != nil {
		t.Fatalf("first alice deck rejected: %v", err)
	}
	_, err = s.Submit(strings.NewReader(admitDeck), 0, "alice")
	var quotaErr *QuotaError
	if !errors.As(err, &quotaErr) {
		t.Fatalf("over-quota alice deck: got %v, want *QuotaError", err)
	}
	if quotaErr.Client != "alice" || quotaErr.RetryAfter < 1 || quotaErr.Quota != quota {
		t.Fatalf("quota error misdescribes itself: %+v", quotaErr)
	}
	// The server is NOT full: bob's identical deck admits.
	bob, err := s.Submit(strings.NewReader(admitDeck), 0, "bob")
	if err != nil {
		t.Fatalf("bob rejected while only alice is over quota: %v", err)
	}
	st := s.Stats()
	if st.ClientBacklog["alice"] <= 0 || st.ClientBacklog["bob"] <= 0 {
		t.Fatalf("per-client backlog not tracked: %+v", st.ClientBacklog)
	}
	// Drain: cancel the long job; alice's quota frees and she admits.
	s.Cancel(long.ID)
	<-long.Done()
	if st := s.Stats(); st.ClientBacklog["alice"] != 0 {
		t.Fatalf("alice backlog %g after her job's terminal state", st.ClientBacklog["alice"])
	}
	// bob's completion calibrates the scale; pin it back to 1 so alice's
	// deck is priced at the model, as when she was over quota.
	<-bob.Done()
	s.cal.Restore(1, 1)
	a2, err := s.Submit(strings.NewReader(admitDeck), 0, "alice")
	if err != nil {
		t.Fatalf("alice rejected after her backlog drained: %v", err)
	}
	<-a2.Done()
}

// TestFairOrderingInterleavesClients: whitebox check of the queue
// order under start-time fair queuing. One client floods four equal
// jobs, another submits two; within the same priority band the queue
// must interleave them instead of serving the flood FIFO.
func TestFairOrderingInterleavesClients(t *testing.T) {
	order := func(submits []struct {
		id     string
		client string
	}) []string {
		s := New(Options{Workers: 1, AdmitOnly: true})
		defer s.Close()
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, sub := range submits {
			j := &Job{
				ID: sub.id, Client: sub.client, seq: i + 1,
				Est: machine.Estimate{Seconds: 10},
			}
			s.fairTagLocked(j)
			s.pushLocked(j)
		}
		ids := make([]string, len(s.queue))
		for i, j := range s.queue {
			ids[i] = j.ID
		}
		s.queue = nil
		return ids
	}

	got := order([]struct{ id, client string }{
		{"a1", "alice"}, {"a2", "alice"}, {"a3", "alice"}, {"a4", "alice"},
		{"b1", "bob"}, {"b2", "bob"},
	})
	want := []string{"a1", "b1", "a2", "b2", "a3", "a4"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("unweighted fair order %v, want %v", got, want)
	}
}

// TestBadClientRejected: hostile X-Client identities die as typed
// *BadClientError before touching the queue or the journal.
func TestBadClientRejected(t *testing.T) {
	s := New(Options{Workers: 1, AdmitOnly: true})
	defer s.Close()
	for _, client := range []string{
		strings.Repeat("a", 65),
		"two words",
		"ctrl\x01byte",
		"naïve",
		"tab\tseparated",
	} {
		_, err := s.Submit(strings.NewReader(admitDeck), 0, client)
		var bad *BadClientError
		if !errors.As(err, &bad) {
			t.Fatalf("hostile client %q accepted (err=%v)", client, err)
		}
	}
	// The default and a normal name both pass.
	j, err := s.Submit(strings.NewReader(admitDeck), 0, "")
	if err != nil || j.Client != DefaultClient {
		t.Fatalf("empty client: job %+v err %v, want default %q", j, err, DefaultClient)
	}
	if j2, err := s.Submit(strings.NewReader(admitDeck), 0, "alice-42"); err != nil || j2.Client != "alice-42" {
		t.Fatalf("plain client rejected: %v", err)
	}
}

// TestTerminalJobPinsNoSnapshot is the memory-leak regression test: a
// job that was preempted (and so held a mesh-sized resume snapshot)
// must drop it — and the merged leg obs, the config (and any ResumeFrom
// in it), and the journaled deck bytes — the moment it reaches a
// terminal state, instead of pinning them for its whole retention-FIFO
// stay.
func TestTerminalJobPinsNoSnapshot(t *testing.T) {
	sodDeck := "[control]\nproblem = sod\nnx = 400\nny = 4\ntend = 0.25\n"
	nohDeck := "[control]\nproblem = noh\nnx = 24\nny = 24\nmaxsteps = 60\n"
	s := New(Options{Workers: 1, Threads: 1})
	defer s.Close()
	sod, err := s.Submit(strings.NewReader(sodDeck), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, s, sod, 10)
	noh, err := s.Submit(strings.NewReader(nohDeck), 10, "")
	if err != nil {
		t.Fatal(err)
	}
	<-noh.Done()
	<-sod.Done()
	st := s.Status(sod)
	if st.State != StateDone || st.Preemptions < 1 {
		t.Fatalf("scenario broke: sod ended %+v, want done with >=1 preemption", st)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sod.resumeSnap != nil {
		t.Error("terminal job still pins its resume snapshot")
	}
	if sod.prevObs != nil {
		t.Error("terminal job still pins its merged leg obs")
	}
	if sod.cfg != nil {
		t.Error("terminal job still pins its config (and any snapshot through ResumeFrom)")
	}
	if sod.deckRaw != nil {
		t.Error("terminal job still pins its raw deck bytes")
	}
	// The result itself must be unharmed by the cleanup.
	if sod.result == nil || sod.obsJSON == nil {
		t.Fatal("cleanup destroyed the result")
	}
}

// TestDoneStatusReportsDeckTEnd is the wrong-status-field regression
// test: a MaxSteps-limited run stops short of the deck's configured
// end time, and the done status must report that configured tend — not
// echo the reached time into both fields.
func TestDoneStatusReportsDeckTEnd(t *testing.T) {
	deck := "[control]\nproblem = sod\nnx = 40\nny = 4\ntend = 0.25\nmaxsteps = 10\n"
	s := New(Options{Workers: 1, Threads: 1})
	defer s.Close()
	j, err := s.Submit(strings.NewReader(deck), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	st := s.Status(j)
	if st.State != StateDone {
		t.Fatalf("job ended %q (%s)", st.State, st.Error)
	}
	if st.TEnd != 0.25 {
		t.Fatalf("done status tend = %v, want the deck's configured 0.25", st.TEnd)
	}
	if st.Time >= st.TEnd {
		t.Fatalf("scenario broke: maxsteps run reached time %v >= tend %v", st.Time, st.TEnd)
	}
}

// TestResultFileDamage: a done job whose <id>.res is truncated,
// bit-flipped, emptied or deleted keeps its status, but serves no part
// of its result — result is nil and GET answers the typed
// result_unavailable error — on the live server and after a restart.
func TestResultFileDamage(t *testing.T) {
	deck := "[control]\nproblem = sod\nnx = 40\nny = 4\nmaxsteps = 10\n"
	flip := func(off func(size int) int) func(string) error {
		return func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b[off(len(b))] ^= 0x10
			return os.WriteFile(path, b, 0o644)
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(path string) error
	}{
		{"truncated", func(path string) error {
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, fi.Size()/2)
		}},
		{"emptied", func(path string) error { return os.Truncate(path, 0) }},
		{"bit-flipped field", flip(func(size int) int { return size / 2 })},
		{"bit-flipped checksum", flip(func(size int) int { return size - 1 })},
		{"bit-flipped header", flip(func(int) int { return 10 })},
		{"deleted", os.Remove},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := Options{Workers: 1, Threads: 1, StateDir: dir, SpillInterval: -1}
			s, err := Open(opt)
			if err != nil {
				t.Fatal(err)
			}
			j, err := s.Submit(strings.NewReader(deck), 0, "")
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
			if res, _ := s.result(j); res == nil {
				t.Fatal("no result before the damage")
			}
			if err := tc.damage(filepath.Join(dir, j.ID+resSuffix)); err != nil {
				t.Fatal(err)
			}
			check := func(s *Server, when string) {
				t.Helper()
				if st := s.Status(mustGet(t, s, j.ID)); st.State != StateDone || st.Step != 10 {
					t.Fatalf("%s: status lost with the file: %+v", when, st)
				}
				if res, err := s.result(mustGet(t, s, j.ID)); res != nil || err == nil {
					t.Fatalf("%s: result served a damaged file (%d rho values, err %v)", when, len(res.Rho), err)
				}
				code, body := getRaw(t, s, j.ID)
				var eb errorBody
				if err := json.Unmarshal(body, &eb); err != nil || code != http.StatusInternalServerError ||
					eb.Error.Code != CodeResultUnavailable {
					t.Fatalf("%s: GET answered %d %s, want 500 %s", when, code, body, CodeResultUnavailable)
				}
				if bytes.Contains(body, []byte(`"rho"`)) {
					t.Fatalf("%s: GET served part of a damaged result: %s", when, body)
				}
			}
			check(s, "live")
			s.Close()
			s2, err := Open(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			check(s2, "restarted")
		})
	}
}

// resFiles lists the result files in dir, sorted.
func resFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+resSuffix))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		names[i] = filepath.Base(n)
	}
	sort.Strings(names)
	return names
}

// TestResultFilesFollowRetention: a result file lives exactly as long
// as its job is retained. Eviction from the retention FIFO deletes it,
// at run time and in Open's replay (here under a smaller cap), and
// Open's orphan sweep removes a file no retained job names.
func TestResultFilesFollowRetention(t *testing.T) {
	deck := "[control]\nproblem = sod\nnx = 20\nny = 2\nmaxsteps = 5\n"
	dir := t.TempDir()
	opt := Options{Workers: 1, Threads: 1, StateDir: dir, SpillInterval: -1, MaxTerminalJobs: 3}
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		j, err := s.Submit(strings.NewReader(deck), 0, "")
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		ids = append(ids, j.ID)
	}
	want := func(ids []string) []string {
		var out []string
		for _, id := range ids {
			out = append(out, id+resSuffix)
		}
		return out
	}
	if got := resFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(want(ids[3:])) {
		t.Fatalf("after 6 completions under a cap of 3: result files %v, want %v", got, want(ids[3:]))
	}
	s.Close()

	// A stray file from a job the journal does not retain is an orphan.
	if err := os.WriteFile(filepath.Join(dir, "j999999"+resSuffix), []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := resFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(want(ids[3:])) {
		t.Fatalf("after a restart: result files %v, want %v", got, want(ids[3:]))
	}
	for _, id := range ids[3:] {
		if res, _ := s2.result(mustGet(t, s2, id)); res == nil {
			t.Fatalf("retained job %s lost its result across the restart", id)
		}
	}
	s2.Close()

	opt.MaxTerminalJobs = 2
	s3, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := resFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(want(ids[4:])) {
		t.Fatalf("after a restart under a cap of 2: result files %v, want %v", got, want(ids[4:]))
	}
}

// TestDoneJobMemoryFlat pins that a done job's memory no longer follows
// the retention window. On a durable server the fields live in the
// result files, so nineteen more retained Noh 24x24 jobs must cost less
// live heap than one result's seven arrays. HeapAlloc after two GCs is
// the live heap; HeapInuse counts whole spans and moves in 8 KiB steps.
// An in-memory server keeps the fields as a ResultJSON, which has no
// room for the mesh or timer tables no endpoint serves.
func TestDoneJobMemoryFlat(t *testing.T) {
	deck := "[control]\nproblem = noh\nnx = 24\nny = 24\nmaxsteps = 60\n"
	finish := func(s *Server) *Job {
		t.Helper()
		j, err := s.Submit(strings.NewReader(deck), 0, "")
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if st := s.Status(j); st.State != StateDone {
			t.Fatalf("job ended %q (%s)", st.State, st.Error)
		}
		return j
	}
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	t.Run("durable", func(t *testing.T) {
		opt := Options{Workers: 1, Threads: 1, SpillInterval: -1}
		opt.StateDir = t.TempDir()
		s, err := Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, _ := s.result(finish(s))
		if res == nil {
			t.Fatal("no result")
		}
		arrays := int64(8 * (len(res.X) + len(res.Y) + len(res.Rho) + len(res.P) +
			len(res.Ein) + len(res.U) + len(res.V)))
		res = nil
		h1 := liveHeap()
		for n := 2; n <= 20; n++ {
			finish(s)
		}
		growth := liveHeap() - h1
		if growth >= arrays {
			t.Fatalf("live heap grew %d B from 1 to 20 retained done jobs; one result's arrays are %d B", growth, arrays)
		}
		t.Logf("live heap grew %d B from 1 to 20 retained done jobs; one result's arrays are %d B", growth, arrays)
	})

	t.Run("in-memory", func(t *testing.T) {
		s := New(Options{Workers: 1, Threads: 1})
		defer s.Close()
		j := finish(s)
		if res, _ := s.result(j); res == nil || len(res.Rho) == 0 || s.Metrics(j) == nil {
			t.Fatal("in-memory server lost what GET serves")
		}
	})
}
