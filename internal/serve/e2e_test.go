package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"bookleaf"
	"bookleaf/internal/config"
	"bookleaf/internal/machine"
)

// End-to-end battery: the full HTTP surface over a live scheduler.
// The load-bearing assertion throughout is bitwise equality — a deck
// submitted over the wire must produce exactly the floats a direct
// bookleaf.Run of the same deck produces, because JSON round-trips
// float64 exactly and the served path shares every numerical kernel.

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submitDeck(t *testing.T, ts *httptest.Server, deck string, priority int) SubmitResponse {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if priority != 0 {
		req.Header.Set("X-Priority", fmt.Sprint(priority))
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("get %s: status %d: %s", id, resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, ts *httptest.Server, id string, want ...string) JobResponse {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		jr := getJob(t, ts, id)
		for _, w := range want {
			if jr.State == w {
				return jr
			}
		}
		if jr.State == StateFailed || jr.State == StateCanceled || jr.State == StateDone {
			t.Fatalf("job %s reached terminal state %q (error %q), wanted %v",
				id, jr.State, jr.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %v", id, jr.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func directRun(t *testing.T, deck string) *bookleaf.Result {
	t.Helper()
	d, err := config.ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := bookleaf.ConfigFromDeck(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bookleaf.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertFieldsBitwise(t *testing.T, got *ResultJSON, want *bookleaf.Result) {
	t.Helper()
	if got.Steps != want.Steps || got.Time != want.Time {
		t.Fatalf("clock differs: served %d/%v, direct %d/%v",
			got.Steps, got.Time, want.Steps, want.Time)
	}
	if got.E0 != want.E0 || got.EFinal != want.EFinal ||
		got.ExternalWork != want.ExternalWork ||
		got.Mass0 != want.Mass0 || got.MassFinal != want.MassFinal {
		t.Fatalf("audit scalars differ: served %+v vs direct E0=%v EFinal=%v",
			got, want.E0, want.EFinal)
	}
	fields := []struct {
		name     string
		got, ref []float64
	}{
		{"x", got.X, want.X}, {"y", got.Y, want.Y},
		{"rho", got.Rho, want.Rho}, {"p", got.P, want.P},
		{"ein", got.Ein, want.Ein}, {"u", got.U, want.U}, {"v", got.V, want.V},
	}
	for _, f := range fields {
		if len(f.got) != len(f.ref) {
			t.Fatalf("field %s: length %d vs %d", f.name, len(f.got), len(f.ref))
		}
		for i := range f.got {
			if f.got[i] != f.ref[i] {
				t.Fatalf("field %s[%d]: served %v != direct %v (bitwise)",
					f.name, i, f.got[i], f.ref[i])
			}
		}
	}
}

func readRepoDeck(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("../../decks/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeHappyPathBitwise is the submit→poll→result happy path on
// the repository's sod deck, with the result compared bitwise against
// a direct in-process run.
func TestServeHappyPathBitwise(t *testing.T) {
	deck := readRepoDeck(t, "sod.deck")
	_, ts := newTestServer(t, Options{Workers: 2, Threads: 1})

	sub := submitDeck(t, ts, deck, 0)
	if sub.EstSeconds <= 0 || sub.EstSteps <= 0 {
		t.Fatalf("degenerate admission estimate: %+v", sub)
	}
	jr := waitState(t, ts, sub.ID, StateDone)
	if jr.Result == nil {
		t.Fatal("done job has no result")
	}
	assertFieldsBitwise(t, jr.Result, directRun(t, deck))
}

// TestServeMalformedDeck: parse failures, type errors and server-unsafe
// keys all come back as 400 with the typed error body.
func TestServeMalformedDeck(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, AdmitOnly: true})
	for _, tc := range []struct {
		deck string
		code string
	}{
		{"problem = sod\n", CodeBadDeck},                                // key outside section
		{"[control\nproblem = sod\n", CodeBadDeck},                      // malformed header
		{"[control]\nproblem = sod\nnx = lots\n", CodeBadDeck},          // type error
		{"[control]\nproblem = sod\ncheckpoint = /x\n", CodeBadDeck},    // server-unsafe
		{"[control]\nproblem = nosuch\nnx = 10\nny = 4\n", CodeBadDeck}, // unknown problem
		// A bad [supervise] value is a 400, not a job that fails later.
		{"[control]\nproblem = sod\n[supervise]\nenabled = true\nrepart_ranks = -1\n", CodeBadDeck},
		{"[control]\nproblem = sod\n[supervise]\nenabled = true\nrepart_at = -2\n", CodeBadDeck},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(tc.deck))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		if derr := json.NewDecoder(resp.Body).Decode(&eb); derr != nil {
			t.Fatalf("error body not JSON: %v", derr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != tc.code {
			t.Fatalf("deck %q: got status %d code %q, want 400 %q",
				tc.deck, resp.StatusCode, eb.Error.Code, tc.code)
		}
	}
	// Unknown job IDs are typed too.
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/zzz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
	}
}

// TestServeRepartRanksCapped: an online repartition grows the fleet to
// [supervise] repart_ranks, so MaxRanks caps that key as it caps ranks.
// A one-rank deck asking to grow past the cap is a 400; the same deck at
// the cap runs, repartitions once, and matches a direct run bitwise.
func TestServeRepartRanksCapped(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Threads: 1, MaxRanks: 2})
	deck := func(repartRanks int) string {
		return fmt.Sprintf("[control]\nproblem = sod\nnx = 40\nny = 4\nmaxsteps = 5\nranks = 1\n"+
			"[supervise]\nenabled = true\nrepart_at = 1\nrepart_ranks = %d\n", repartRanks)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(deck(3)))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if derr := json.NewDecoder(resp.Body).Decode(&eb); derr != nil {
		t.Fatalf("error body not JSON: %v", derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != CodeBadDeck {
		t.Fatalf("repart_ranks over the cap: status %d code %q, want 400 %q",
			resp.StatusCode, eb.Error.Code, CodeBadDeck)
	}

	sub := submitDeck(t, ts, deck(2), 0)
	jr := waitState(t, ts, sub.ID, StateDone)
	assertFieldsBitwise(t, jr.Result, directRun(t, deck(2)))
	mresp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sub.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mr MetricsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Metrics == nil || mr.Metrics.Counters["supervise_repart_total"] != 1 {
		t.Fatalf("repart_ranks at the cap: metrics %+v, want supervise_repart_total 1", mr.Metrics)
	}
}

// TestServeCancelReclaimsSlots: cancel a running job mid-flight and
// check it lands in canceled with every worker slot free again.
func TestServeCancelReclaimsSlots(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, Threads: 1})
	// A deck that runs for a long time but stays cheap: noh at modest
	// resolution has thousands of steps to tend.
	deck := "[control]\nproblem = noh\nnx = 50\nny = 50\ntend = 0.6\n"
	sub := submitDeck(t, ts, deck, 0)
	waitState(t, ts, sub.ID, StateRunning)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		jr := getJob(t, ts, sub.ID)
		if jr.State == StateCanceled {
			break
		}
		if jr.State == StateDone || jr.State == StateFailed {
			t.Fatalf("canceled job reached %q", jr.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q after cancel", jr.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := s.Stats()
	if st.FreeWorkers != st.Workers || st.Running != 0 {
		t.Fatalf("worker slots not reclaimed after cancel: %+v", st)
	}
	// The server still works: a fresh job completes.
	sub2 := submitDeck(t, ts, "[control]\nproblem = sod\nnx = 40\nny = 4\nmaxsteps = 20\n", 0)
	waitState(t, ts, sub2.ID, StateDone)
}

// TestConcurrentJobsIsolated is the tier2-serve core: N concurrent
// submissions on 2 workers under -race. Every job must complete, no
// more than 2 may ever run at once, and each
// job's deterministic obs counters must match a per-deck serial run —
// any registry cross-contamination shows up as a counter mismatch.
func TestConcurrentJobsIsolated(t *testing.T) {
	const n = 6
	decks := make([]string, n)
	for i := range decks {
		// Distinct step counts (and one eulerian remap variant) so a
		// cross-contaminated counter cannot accidentally match.
		deck := fmt.Sprintf("[control]\nproblem = sod\nnx = 60\nny = 4\nmaxsteps = %d\n", 30+10*i)
		if i%2 == 1 {
			deck += "[ale]\nmode = eulerian\n"
		}
		decks[i] = deck
	}
	want := make([]*bookleaf.Result, n)
	for i, deck := range decks {
		want[i] = directRun(t, deck)
	}

	s, ts := newTestServer(t, Options{Workers: 2, Threads: 1})

	// Whitebox invariant probe: while jobs fly, no more than Workers
	// jobs run at once, and the running count the dispatcher gates on
	// is the number of running jobs.
	stop := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.mu.Lock()
			n := 0
			for _, j := range s.jobs {
				if j.state == StateRunning {
					n++
				}
			}
			if n != s.running || n > s.opt.Workers {
				t.Errorf("%d jobs running, running count %d, %d workers", n, s.running, s.opt.Workers)
			}
			s.mu.Unlock()
			time.Sleep(500 * time.Microsecond)
		}
	}()

	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := range decks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submitDeck(t, ts, decks[i], 0).ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		jr := waitState(t, ts, id, StateDone)
		if jr.Result == nil {
			t.Fatalf("job %d has no result", i)
		}
		assertFieldsBitwise(t, jr.Result, want[i])
		assertCountersMatch(t, ts, id, want[i])
	}
	close(stop)
	probeWG.Wait()
}

// deterministicCounters are the obs counters whose totals are a pure
// function of the deck (wall-time counters like *_ns are excluded).
var deterministicCounters = []string{
	"steps_total", "remaps_total", "rollbacks_total",
	"dt_cause_initial", "dt_cause_cfl", "dt_cause_divergence",
	"dt_cause_growth", "dt_cause_max",
}

func assertCountersMatch(t *testing.T, ts *httptest.Server, id string, want *bookleaf.Result) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Metrics == nil {
		t.Fatalf("job %s: no metrics snapshot", id)
	}
	for _, name := range deterministicCounters {
		if got, ref := mr.Metrics.Counters[name], want.Obs.Counters[name]; got != ref {
			t.Fatalf("job %s: counter %s = %d, direct run %d (registry cross-contamination?)",
				id, name, got, ref)
		}
	}
}

// TestPreemptResumeBitwise: a high-priority Noh submission evicts a
// running Sod job at an arbitrary step; the Sod job resumes from the
// in-memory checkpoint and its final state must be bitwise identical
// to an uninterrupted run, counters included.
func TestPreemptResumeBitwise(t *testing.T) {
	// Big enough that the preemption reliably lands mid-run: ~900
	// steps at ~sub-millisecond each.
	sodDeck := "[control]\nproblem = sod\nnx = 400\nny = 4\ntend = 0.25\n"
	nohDeck := "[control]\nproblem = noh\nnx = 24\nny = 24\nmaxsteps = 60\n"
	want := directRun(t, sodDeck)

	_, ts := newTestServer(t, Options{Workers: 1, Threads: 1})
	sod := submitDeck(t, ts, sodDeck, 0)

	// Let it make some progress, then submit the usurper.
	deadline := time.Now().Add(60 * time.Second)
	for {
		jr := getJob(t, ts, sod.ID)
		if jr.State == StateRunning && jr.Step >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sod job made no progress: %+v", jr)
		}
		time.Sleep(time.Millisecond)
	}
	noh := submitDeck(t, ts, nohDeck, 10)

	// The noh job must run to completion while sod is parked.
	nohDone := waitState(t, ts, noh.ID, StateDone)
	if nohDone.Result == nil {
		t.Fatal("noh job has no result")
	}

	sodDone := waitState(t, ts, sod.ID, StateDone)
	if sodDone.Preemptions < 1 {
		t.Fatalf("sod job was never preempted (preemptions=%d)", sodDone.Preemptions)
	}
	if sodDone.Result == nil {
		t.Fatal("sod job has no result")
	}
	assertFieldsBitwise(t, sodDone.Result, want)
	// The merged per-leg counters must equal the uninterrupted run's.
	assertCountersMatch(t, ts, sod.ID, want)
}

// TestParallelDeckPreemptResume drives the multi-rank preemption path:
// a ranks=2 deck is evicted at a collective healthy point by a
// high-priority submission, resumes through the partition-independent
// snapshot, and must still match an uninterrupted ranks=2 run bitwise.
func TestParallelDeckPreemptResume(t *testing.T) {
	sodDeck := "[control]\nproblem = sod\nnx = 400\nny = 4\ntend = 0.25\nranks = 2\n"
	nohDeck := "[control]\nproblem = noh\nnx = 24\nny = 24\nmaxsteps = 60\n"
	want := directRun(t, sodDeck)

	_, ts := newTestServer(t, Options{Workers: 1, Threads: 1})
	sod := submitDeck(t, ts, sodDeck, 0)
	deadline := time.Now().Add(60 * time.Second)
	for {
		jr := getJob(t, ts, sod.ID)
		if jr.State == StateRunning && jr.Step >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("parallel sod job made no progress: %+v", jr)
		}
		time.Sleep(time.Millisecond)
	}
	noh := submitDeck(t, ts, nohDeck, 10)
	waitState(t, ts, noh.ID, StateDone)
	sodDone := waitState(t, ts, sod.ID, StateDone)
	if sodDone.Preemptions < 1 {
		t.Fatalf("parallel sod job was never preempted (preemptions=%d)", sodDone.Preemptions)
	}
	assertFieldsBitwise(t, sodDone.Result, want)
	assertCountersMatch(t, ts, sod.ID, want)
}

// TestParallelDeckCancel drives the multi-rank collective-cancel path.
func TestParallelDeckCancel(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, Threads: 1})
	deck := "[control]\nproblem = noh\nnx = 40\nny = 40\ntend = 0.6\nranks = 2\n"
	sub := submitDeck(t, ts, deck, 0)
	waitState(t, ts, sub.ID, StateRunning)
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		jr := getJob(t, ts, sub.ID)
		if jr.State == StateCanceled {
			break
		}
		if jr.State == StateDone || jr.State == StateFailed {
			t.Fatalf("canceled parallel job reached %q (%s)", jr.State, jr.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("parallel job stuck in %q after cancel", jr.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := s.Stats(); st.FreeWorkers != st.Workers {
		t.Fatalf("worker slot not reclaimed after parallel cancel: %+v", st)
	}
}

// TestServeMetricsWatch: the streaming metrics endpoint emits parseable
// NDJSON documents with non-decreasing steps, ending at a terminal
// state.
func TestServeMetricsWatch(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Threads: 1})
	// Big enough (~1ms/step) that the watcher reliably attaches while
	// the job is still running — a finished job streams exactly one
	// document, which TestServeMetricsWatchTerminal covers.
	deck := "[control]\nproblem = sod\nnx = 400\nny = 4\nmaxsteps = 300\n"
	sub := submitDeck(t, ts, deck, 0)

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sub.ID + "/metrics?watch=1&interval_ms=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	lastStep := -1
	docs := 0
	var last MetricsResponse
	for dec.More() {
		var mr MetricsResponse
		if err := dec.Decode(&mr); err != nil {
			t.Fatalf("stream document %d: %v", docs, err)
		}
		if mr.Step < lastStep {
			t.Fatalf("steps went backwards: %d after %d", mr.Step, lastStep)
		}
		lastStep = mr.Step
		last = mr
		docs++
	}
	if docs < 2 {
		t.Fatalf("stream produced %d document(s), want at least 2", docs)
	}
	if last.State != StateDone {
		t.Fatalf("stream ended in state %q", last.State)
	}
	if last.Metrics == nil || last.Metrics.Counters["steps_total"] != 300 {
		t.Fatalf("final stream document lacks merged counters: %+v", last.Metrics)
	}
}

// TestServeMetricsWatchTerminal: watching a job that is already in a
// terminal state yields exactly one final document — the terminal check
// precedes the periodic encode, so clients never see the closing record
// duplicated.
func TestServeMetricsWatchTerminal(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Threads: 1})
	sub := submitDeck(t, ts, "[control]\nproblem = sod\nnx = 40\nny = 4\nmaxsteps = 10\n", 0)
	waitState(t, ts, sub.ID, StateDone)

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sub.ID + "/metrics?watch=1&interval_ms=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	docs := 0
	var last MetricsResponse
	for dec.More() {
		if err := dec.Decode(&last); err != nil {
			t.Fatalf("stream document %d: %v", docs, err)
		}
		docs++
	}
	if docs != 1 {
		t.Fatalf("watch of a finished job produced %d documents, want exactly 1", docs)
	}
	if last.State != StateDone {
		t.Fatalf("final document state %q, want %q", last.State, StateDone)
	}
}

// TestServeMetricsWatchHostileInterval is the handler-panic regression
// test: interval_ms is attacker-controlled, and values that overflow
// time.Duration(v) * time.Millisecond into a non-positive duration
// used to panic time.NewTicker inside the handler. Every hostile value
// must clamp into [10ms, 60s] and stream normally.
func TestServeMetricsWatchHostileInterval(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Threads: 1, AdmitOnly: true})
	sub := submitDeck(t, ts, "[control]\nproblem = sod\nnx = 40\nny = 4\nmaxsteps = 10\n", 0)

	for _, ms := range []string{
		"9223372036854775807", // MaxInt64: *1e6 wraps negative
		"1152921504606846976", // 1<<60: *1e6 wraps to exactly zero
		"-5",
		"60001", // over the cap: clamps to 60s, must not stall the final doc
		"2147483648",
		"not-a-number",
	} {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sub.ID +
			"/metrics?watch=1&interval_ms=" + ms)
		if err != nil {
			t.Fatalf("interval_ms=%s: request failed (handler panicked?): %v", ms, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("interval_ms=%s: status %d", ms, resp.StatusCode)
		}
		// The job is terminal, so the stream must deliver exactly one
		// final document and close — promptly, whatever the interval.
		dec := json.NewDecoder(resp.Body)
		docs := 0
		var last MetricsResponse
		for dec.More() {
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("interval_ms=%s: document %d: %v", ms, docs, err)
			}
			docs++
		}
		resp.Body.Close()
		if docs != 1 || last.State != StateDone {
			t.Fatalf("interval_ms=%s: %d docs ending %q, want 1 doc done", ms, docs, last.State)
		}
	}
}

// TestServeQuotaOverHTTP: the wire shape of the per-client quota — a
// 429 whose code distinguishes client_over_quota from overloaded, with
// Retry-After set, while another client's identical deck still admits.
func TestServeQuotaOverHTTP(t *testing.T) {
	longDeck := "[control]\nproblem = noh\nnx = 50\nny = 50\ntend = 0.6\n"
	longEst := machine.PredictRun(machine.RunShape{
		Problem: "noh", NX: 50, NY: 50, TEnd: 0.6, Threads: 1,
	})
	// Room for alice's long job but not the small one on top of it.
	_, ts := newTestServer(t, Options{
		Workers: 1, BudgetSeconds: 1e9,
		ClientBudgetSeconds: longEst.Seconds + admitEst(1).Seconds/2,
	})
	// One long (but cancelable) job fills alice's quota; AdmitOnly
	// would drain it instantly, so use a real run.
	a1 := submitDeckAs(t, ts, longDeck, 0, "alice")

	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(admitDeck))
	req.Header.Set("X-Client", "alice")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || eb.Error.Code != CodeOverQuota {
		t.Fatalf("over-quota alice: status %d code %q, want 429 %q",
			resp.StatusCode, eb.Error.Code, CodeOverQuota)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 without Retry-After")
	}
	// bob admits the identical deck: the server is not full.
	bob := submitDeckAs(t, ts, admitDeck, 0, "bob")

	// Hostile client name is a typed 400.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(admitDeck))
	req.Header.Set("X-Client", strings.Repeat("x", 65))
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	eb = errorBody{}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != CodeBadClient {
		t.Fatalf("hostile client: status %d code %q, want 400 %q",
			resp.StatusCode, eb.Error.Code, CodeBadClient)
	}

	// Cleanup: cancel the runners so server Close is quick.
	for _, id := range []string{a1.ID, bob.ID} {
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
		if resp, err := ts.Client().Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

func submitDeckAs(t *testing.T, ts *httptest.Server, deck string, priority int, client string) SubmitResponse {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if priority != 0 {
		req.Header.Set("X-Priority", fmt.Sprint(priority))
	}
	if client != "" {
		req.Header.Set("X-Client", client)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit as %q: status %d: %s", client, resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// TestServeStatusEndpoint sanity-checks /v1/status wiring.
func TestServeStatusEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 3, Threads: 1, AdmitOnly: true})
	resp, err := ts.Client().Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 3 || st.FreeWorkers != 3 {
		t.Fatalf("stats wrong: %+v", st)
	}
}
