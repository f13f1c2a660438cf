package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bookleaf"
	"bookleaf/internal/config"
)

// FuzzSubmitDeck hammers the HTTP deck-submission path — headers plus
// body — with mutated decks seeded from decks/. The server runs in
// AdmitOnly mode: every submission is parsed, predicted, and admitted
// or rejected, but nothing executes, so the fuzzer explores the
// untrusted-input surface (parser, deck→config mapping, admission
// arithmetic) at full speed. The invariant: any input yields a typed
// JSON response with a known status, never a panic or a hang.
func FuzzSubmitDeck(f *testing.F) {
	files, _ := filepath.Glob("../../decks/*.deck")
	for _, p := range files {
		if b, err := os.ReadFile(p); err == nil {
			f.Add(b, "0", "")
			f.Add(b, "10", "alice")
		}
	}
	f.Add([]byte("[control]\nproblem = sod\nnx = 1000000000\nny = 1000000\n"), "1", "")
	f.Add([]byte("[control]\nproblem = sod\nranks = 100000\nthreads = 1000000\n"), "0", "bob")
	f.Add([]byte("[control]\nproblem = sod\nnx = 200\nny = 4\ntend = 1e300\n"), "0", "")
	f.Add([]byte("[control]\nproblem = sod\nnx = 4000000000\nny = 4000000000\n"), "0", "")
	f.Add([]byte("[control]\nproblem = sod\nnx = -7\nny = 0\n"), "-3", "")
	f.Add([]byte("[control]\nproblem = sod\ncheckpoint = /etc/passwd\n"), "", "")
	f.Add([]byte("garbage\n"), "2147483648", "x")
	f.Add([]byte("[supervise]\nenabled = maybe\n"), "0", "")
	// A repartition may not grow the fleet past the rank cap, and a key
	// the deck format no longer has must not smuggle anything past it.
	f.Add([]byte("[control]\nproblem = sod\nnx = 40\nny = 4\n[supervise]\nenabled = true\nrepart_at = 1\nrepart_ranks = 1000000\n"), "0", "")
	f.Add([]byte("[control]\nproblem = sod\nnx = 40\nny = 4\n[supervise]\nenabled = true\nbackoff_base = 100h\n"), "0", "")
	f.Add([]byte(""), "not-a-number", "")
	// Deleted deck keys are unused keys: neither a huge retry budget nor
	// a negative rollback cadence reaches the run.
	f.Add([]byte("[control]\nproblem = sod\nnx = 40\nny = 4\nretry_budget = 1000000000\n"), "0", "")
	f.Add([]byte("[control]\nproblem = sod\nnx = 40\nny = 4\nrollback_every = -1\n"), "0", "")
	// Hostile client identities: oversized, control bytes, spaces,
	// non-ASCII — each must be a typed 400, never a panic or a journaled
	// garbage name.
	f.Add([]byte("[control]\nproblem = sod\nnx = 40\nny = 4\n"), "0", strings.Repeat("a", 65))
	f.Add([]byte("[control]\nproblem = sod\nnx = 40\nny = 4\n"), "0", "evil\x01name")
	f.Add([]byte("[control]\nproblem = sod\nnx = 40\nny = 4\n"), "0", "two words")
	f.Add([]byte("[control]\nproblem = sod\nnx = 40\nny = 4\n"), "0", "naïve")
	f.Add([]byte("[control]\nproblem = sod\nnx = 40\nny = 4\n"), "0", "../../etc/passwd")
	f.Add([]byte("[control]\nproblem = sod\nnx = 40\nny = 4\n"), "0", "a\tb")

	srv := New(Options{Workers: 1, BudgetSeconds: 3600, AdmitOnly: true})
	ts := httptest.NewServer(srv.Handler())
	f.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	f.Fuzz(func(t *testing.T, deck []byte, priority, client string) {
		req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(deck))
		if err != nil {
			t.Skip() // header-invalid priority strings can't even build a request
		}
		if priority != "" {
			req.Header.Set("X-Priority", priority)
		}
		if client != "" {
			req.Header.Set("X-Client", client)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			// The transport rejects some hostile header bytes before the
			// server sees them; that is not a server defect.
			t.Skip()
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("unexpected status %d for deck %q priority %q",
				resp.StatusCode, deck, priority)
		}
		// Every response — success or error — must be well-formed JSON.
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("status %d body is not JSON: %v", resp.StatusCode, err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		}
		if resp.StatusCode == http.StatusAccepted {
			id, _ := doc["id"].(string)
			if id == "" {
				t.Fatalf("202 without job id: %v", doc)
			}
			// An admitted deck declares no fleet past the caps, at the
			// start or after a repartition.
			d, err := config.ParseString(string(deck))
			if err != nil {
				t.Fatalf("admitted deck does not parse: %v", err)
			}
			cfg, err := bookleaf.ConfigFromDeck(d)
			if err != nil {
				t.Fatalf("admitted deck does not map: %v", err)
			}
			if cfg.Ranks > srv.opt.MaxRanks || cfg.Threads > srv.opt.MaxThreads ||
				(cfg.Supervise != nil && cfg.Supervise.RepartRanks > srv.opt.MaxRanks) {
				t.Fatalf("admitted a fleet past the caps: ranks %d threads %d supervise %+v",
					cfg.Ranks, cfg.Threads, cfg.Supervise)
			}
			// The admitted job must be immediately visible.
			jr, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			jr.Body.Close()
			if jr.StatusCode != http.StatusOK {
				t.Fatalf("admitted job %s not retrievable: %d", id, jr.StatusCode)
			}
		}
	})
}

// FuzzJournalReplay feeds arbitrary bytes to the durable server as its
// on-disk journal: a crash can tear the final line, an operator can
// truncate or corrupt the file, and neither replay nor a full Open over
// the wreckage may panic or fail — recovery keeps whatever parses. The
// seeds cover a well-formed journal in the older format (start and
// calib lines) and in the current one (the calibration on the done
// line), the older one torn mid-line, records out of order, and
// assorted non-JSON garbage. With sealed set every line is sealed
// before it is written, so the fuzzer's records reach the decoder behind
// the checksum; the unsealed seed is a journal whose lines carry no
// checksum, which replays as empty.
func FuzzJournalReplay(f *testing.F) {
	submit := `{"op":"submit","id":"j000001","seq":1,"priority":0,"client":"alice","deck":"W2NvbnRyb2xdCnByb2JsZW0gPSBzb2QKbnggPSA0MApueSA9IDQK","est_seconds":0.5,"model_seconds":0.5}
`
	valid := submit + `{"op":"start","id":"j000001","seq":1}
{"op":"done","id":"j000001","seq":1,"client":"alice"}
{"op":"calib","scale":1.5,"n":3}
`
	f.Add([]byte(valid), true)
	f.Add([]byte(valid), false)
	f.Add([]byte(submit+`{"op":"done","id":"j000001","seq":1,"client":"alice","scale":1.5,"n":3}`+"\n"), true)
	f.Add([]byte(valid[:len(valid)/2]), true) // torn mid-line
	f.Add([]byte(`{"op":"spill","id":"jX","snap":"../../../etc/passwd","step":3}`+"\n"), true)
	f.Add([]byte(`{"op":"done","id":"j9"}`+"\n"+`{"op":"done","id":"j9"}`+"\n"), true)
	f.Add([]byte(`{"op":"done","id":"j000002","seq":2,"step":5,"tend":0.2,"res":"j000002.res","obs":{"counters":{"steps_total":5}}}`+"\n"), true)
	f.Add([]byte(`{"op":"done","id":"j3","res":"journal.ndjson","obs":7}`+"\n"+`{"op":"done","id":"../j4","res":"../j4.res"}`+"\n"), true)
	f.Add([]byte(`{"op":"submit"}`+"\n{not json}\n\x00\x01\x02\n"), true)
	f.Add([]byte(`{"op":"calib","scale":-7,"n":-1}`+"\n"), true)
	f.Add([]byte(`{"op":"submit","id":"j1","seq":999999,"est_seconds":1e308}`+"\n"), true)
	f.Add([]byte("\n\n\n"), true)
	f.Add([]byte{}, true)

	f.Fuzz(func(t *testing.T, journal []byte, sealed bool) {
		if sealed {
			var b []byte
			for _, line := range bytes.Split(journal, []byte("\n")) {
				if line = bytes.TrimSpace(line); len(line) > 0 {
					b = append(b, seal(bytes.Clone(line))...)
				}
			}
			journal = b
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		st := replayJournal(dir)
		if st == nil {
			t.Fatal("replayJournal returned nil")
		}
		// A full Open over the same wreckage must also survive: replayed
		// live jobs re-validate their decks, corrupt ones fail typed, and
		// the compacted journal it leaves behind must itself replay clean.
		srv, err := Open(Options{
			Workers: 1, AdmitOnly: true, StateDir: dir, SpillInterval: -1,
		})
		if err != nil {
			t.Fatalf("Open over corrupt journal: %v", err)
		}
		srv.Close()
		st2 := replayJournal(dir)
		if st2.skipped != 0 {
			t.Fatalf("compacted journal has %d unparseable lines", st2.skipped)
		}
	})
}
