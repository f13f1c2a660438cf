package serve

import (
	"errors"
	"math"
	"strings"
	"testing"

	"bookleaf/internal/machine"
)

// Admission-control unit tests: the 429 boundary is exact and
// Retry-After reflects the predicted drain time. AdmitOnly keeps the
// scheduler from actually running anything, so these are pure
// arithmetic checks against the same predictor the server uses.

const admitDeck = "[control]\nproblem = sod\nnx = 200\nny = 4\ntend = 0.25\n"

func admitEst(threads int) machine.Estimate {
	return machine.PredictRun(machine.RunShape{
		Problem: "sod", NX: 200, NY: 4, TEnd: 0.25, Threads: threads,
	})
}

func TestAdmissionExactBoundary(t *testing.T) {
	est := admitEst(1)

	// Budget exactly the estimate: the deck fits, boundary inclusive.
	s := New(Options{Workers: 1, Threads: 1, BudgetSeconds: est.Seconds, AdmitOnly: true})
	defer s.Close()
	j, err := s.Submit(strings.NewReader(admitDeck), 0, "")
	if err != nil {
		t.Fatalf("deck at exact budget rejected: %v", err)
	}
	if j.Est.Seconds != est.Seconds {
		t.Fatalf("server estimate %g, test estimate %g", j.Est.Seconds, est.Seconds)
	}

	// One ulp below the estimate: 429 fires.
	s2 := New(Options{Workers: 1, Threads: 1,
		BudgetSeconds: math.Nextafter(est.Seconds, 0), AdmitOnly: true})
	defer s2.Close()
	_, err = s2.Submit(strings.NewReader(admitDeck), 0, "")
	var over *OverloadedError
	if !errors.As(err, &over) {
		t.Fatalf("deck one ulp over budget admitted (err=%v)", err)
	}
	if over.RetryAfter < 1 {
		t.Fatalf("Retry-After %d < 1", over.RetryAfter)
	}
}

func TestAdmissionRetryAfterDrainTime(t *testing.T) {
	// A deliberately enormous deck: the excess over a tiny budget is
	// essentially the whole estimate, so Retry-After must scale as
	// ceil(excess / workers).
	bigDeck := "[control]\nproblem = sod\nnx = 5000\nny = 100\ntend = 0.25\n"
	bigEst := machine.PredictRun(machine.RunShape{
		Problem: "sod", NX: 5000, NY: 100, TEnd: 0.25, Threads: 1,
	})
	if bigEst.Seconds < 10 {
		t.Fatalf("test deck too cheap to measure drain time: %g s", bigEst.Seconds)
	}
	for _, workers := range []int{1, 4} {
		s := New(Options{Workers: workers, Threads: 1, BudgetSeconds: 1, AdmitOnly: true})
		_, err := s.Submit(strings.NewReader(bigDeck), 0, "")
		var over *OverloadedError
		if !errors.As(err, &over) {
			t.Fatalf("workers=%d: giant deck admitted (err=%v)", workers, err)
		}
		want := int(math.Ceil((bigEst.Seconds - 1) / float64(workers)))
		if over.RetryAfter != want {
			t.Fatalf("workers=%d: Retry-After %d, want ceil(%g/%d)=%d",
				workers, over.RetryAfter, bigEst.Seconds-1, workers, want)
		}
		s.Close()
	}
}

func TestAdmissionBacklogAccounting(t *testing.T) {
	est := admitEst(1)
	// Room for exactly two decks. AdmitOnly completes jobs instantly,
	// releasing their backlog, so submit under the lock-free public API
	// and check the counter returns to zero.
	s := New(Options{Workers: 1, Threads: 1, BudgetSeconds: 2 * est.Seconds, AdmitOnly: true})
	defer s.Close()
	for i := 0; i < 5; i++ {
		if _, err := s.Submit(strings.NewReader(admitDeck), 0, ""); err != nil {
			t.Fatalf("submission %d rejected: %v", i, err)
		}
		if got := s.Stats().Backlog; got != 0 {
			t.Fatalf("backlog %g after instant completion, want 0", got)
		}
	}
}

func TestSubmitRejectsFileIO(t *testing.T) {
	s := New(Options{Workers: 1, AdmitOnly: true})
	defer s.Close()
	for _, deck := range []string{
		admitDeck + "checkpoint = /tmp/evil.ckpt\n",
		admitDeck + "resume = /etc/passwd\n",
		admitDeck + "[obs]\ntrace = /tmp/evil\n",
		admitDeck + "[obs]\nmetrics = /tmp/evil.json\n",
	} {
		_, err := s.Submit(strings.NewReader(deck), 0, "")
		var bad *BadDeckError
		if !errors.As(err, &bad) {
			t.Fatalf("file-io deck accepted (err=%v):\n%s", err, deck)
		}
	}
}

// TestSubmitRejectsResourceBombs: deck-declared parallelism and mesh
// size are capped at admission — ranks/threads spawn goroutines and
// pools, NX*NY allocates mesh, so an untrusted deck past the caps must
// die as a typed 400 before any of that exists. The budget is set huge
// so the caps, not admission arithmetic, are what reject.
func TestSubmitRejectsResourceBombs(t *testing.T) {
	s := New(Options{Workers: 1, BudgetSeconds: 1e300, AdmitOnly: true})
	defer s.Close()
	for _, deck := range []string{
		admitDeck + "ranks = 100000\n",
		admitDeck + "threads = 1000000\n",
		"[control]\nproblem = sod\nnx = 100000000\nny = 100000000\n", // nx, ny over the cap
		"[control]\nproblem = sod\nnx = 4096\nny = 4096\n",           // product over the 4Mi cap
	} {
		_, err := s.Submit(strings.NewReader(deck), 0, "")
		var bad *BadDeckError
		if !errors.As(err, &bad) {
			t.Fatalf("resource-bomb deck admitted (err=%v):\n%s", err, deck)
		}
	}
	// Parallelism inside the caps still admits.
	if _, err := s.Submit(strings.NewReader(admitDeck+"ranks = 2\nthreads = 2\n"), 0, ""); err != nil {
		t.Fatalf("in-cap parallel deck rejected: %v", err)
	}
}

// TestRanksChargedInAdmission: a ranks=2 deck occupies twice the CPU of
// the serial deck, so its admission estimate must double — and the
// deck's own thread declaration must not discount it (a thread count
// may never lower the price of an identical deck).
func TestRanksChargedInAdmission(t *testing.T) {
	s := New(Options{Workers: 1, Threads: 1, AdmitOnly: true})
	defer s.Close()
	serial, err := s.Submit(strings.NewReader(admitDeck), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	ranks2, err := s.Submit(strings.NewReader(admitDeck+"ranks = 2\n"), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if ranks2.Est.Seconds != 2*serial.Est.Seconds {
		t.Fatalf("ranks=2 estimate %g, want 2x serial %g",
			ranks2.Est.Seconds, 2*serial.Est.Seconds)
	}
	threaded, err := s.Submit(strings.NewReader(admitDeck+"ranks = 2\nthreads = 8\n"), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if threaded.Est.Seconds < ranks2.Est.Seconds {
		t.Fatalf("deck-declared threads discounted the estimate: %g < %g",
			threaded.Est.Seconds, ranks2.Est.Seconds)
	}
}

// TestTerminalJobRetention: terminal jobs (and their result arrays) are
// retained only up to MaxTerminalJobs; the oldest evict from the job
// table so a long-running daemon's memory stays bounded.
func TestTerminalJobRetention(t *testing.T) {
	s := New(Options{Workers: 1, MaxTerminalJobs: 2, AdmitOnly: true})
	defer s.Close()
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := s.Submit(strings.NewReader(admitDeck), 0, "")
		if err != nil {
			t.Fatalf("submission %d rejected: %v", i, err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids[:3] {
		if _, ok := s.Get(id); ok {
			t.Fatalf("job %s should have been evicted from retention", id)
		}
	}
	for _, id := range ids[3:] {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("job %s evicted while inside the retention window", id)
		}
	}
}

func TestSubmitRejectsOversizedDeck(t *testing.T) {
	s := New(Options{Workers: 1, MaxDeckBytes: 64, AdmitOnly: true})
	defer s.Close()
	_, err := s.Submit(strings.NewReader(admitDeck+strings.Repeat("# padding\n", 32)), 0, "")
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("oversized deck accepted (err=%v)", err)
	}
}

func TestClosedServerRejects(t *testing.T) {
	s := New(Options{Workers: 1, AdmitOnly: true})
	s.Close()
	if _, err := s.Submit(strings.NewReader(admitDeck), 0, ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed server accepted a job (err=%v)", err)
	}
}

// TestCalibrationRefinesEstimates: a completed job's measured wall
// seconds feed the online calibrator, and the next submission of the
// same deck is priced at the raw model estimate times the learned
// scale.
func TestCalibrationRefinesEstimates(t *testing.T) {
	deck := "[control]\nproblem = sod\nnx = 24\nny = 4\nmaxsteps = 5\n"
	raw := machine.PredictRun(machine.RunShape{
		Problem: "sod", NX: 24, NY: 4, MaxSteps: 5, Threads: 1,
	})

	s := New(Options{Workers: 1, Threads: 1, BudgetSeconds: 1e9})
	defer s.Close()
	if st := s.Stats(); st.CalibrationScale != 1 || st.CalibrationN != 0 {
		t.Fatalf("fresh server calibration %+v, want scale 1, n 0", st)
	}
	j1, err := s.Submit(strings.NewReader(deck), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if j1.Est.Seconds != raw.Seconds {
		t.Fatalf("uncalibrated estimate %g, want model %g", j1.Est.Seconds, raw.Seconds)
	}
	<-j1.Done()
	st := s.Stats()
	if st.CalibrationN != 1 {
		t.Fatalf("calibration observations %d after one completion, want 1", st.CalibrationN)
	}
	if !(st.CalibrationScale > 0) || math.IsInf(st.CalibrationScale, 0) {
		t.Fatalf("degenerate calibration scale %g", st.CalibrationScale)
	}
	j2, err := s.Submit(strings.NewReader(deck), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	want := raw.Seconds * st.CalibrationScale
	if math.Abs(j2.Est.Seconds-want)/want > 1e-9 {
		t.Fatalf("calibrated estimate %g, want model %g x scale %g = %g",
			j2.Est.Seconds, raw.Seconds, st.CalibrationScale, want)
	}
	<-j2.Done()
}
