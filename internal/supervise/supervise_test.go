package supervise

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"bookleaf/internal/ale"
	"bookleaf/internal/hydro"
	"bookleaf/internal/obs"
	"bookleaf/internal/typhon"
)

// TestClassifyError is the table-driven classification audit across the
// typhon/hydro/ale error taxonomy: recovered rank panics are
// rank-persistent (the goroutine is gone), single communication data
// faults and the hydro/ale retryables are transient, and everything
// unattributable is fatal. Wrapping through AbortError must not change
// the class of the root cause.
func TestClassifyError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassTransient},
		{"rank panic", &typhon.RankPanicError{Rank: 2, Value: "boom"}, ClassRankPersistent},
		{"wrapped rank panic",
			&typhon.AbortError{Rank: 2, Cause: &typhon.RankPanicError{Rank: 2, Value: "boom"}},
			ClassRankPersistent},
		{"size mismatch", &typhon.SizeMismatchError{From: 1, To: 0, Got: 9, Want: 10}, ClassTransient},
		{"wrapped size mismatch",
			&typhon.AbortError{Rank: 0, Cause: &typhon.SizeMismatchError{From: 1, To: 0, Got: 9, Want: 10}},
			ClassTransient},
		{"recv timeout", &typhon.TimeoutError{Rank: 0, From: 1, After: time.Second}, ClassTransient},
		{"dt collapse", &hydro.ErrDtCollapse{Dt: 1e-14, Element: 3}, ClassTransient},
		{"tangled element", &hydro.ErrTangled{Element: 1, Volume: -1}, ClassTransient},
		{"non-finite field", &hydro.ErrNonFinite{Field: "rho", Index: 4, Global: 4}, ClassTransient},
		{"remap overshoot", &ale.ErrRemap{Element: 2, Corner: 1, Mass: -1e-18}, ClassTransient},
		{"bare abort", typhon.ErrAborted, ClassFatal},
		{"abort without cause class",
			&typhon.AbortError{Rank: 1, Cause: errors.New("operator intervention")},
			ClassFatal},
		{"setup error", fmt.Errorf("bookleaf: unknown problem %q", "vortex"), ClassFatal},
	}
	for _, tc := range cases {
		if got := classifyError(tc.err); got != tc.want {
			t.Errorf("%s: classifyError = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		name string
		err  error
		rank int
		ok   bool
	}{
		{"rank panic", &typhon.RankPanicError{Rank: 3, Value: "x"}, 3, true},
		{"size mismatch blames sender", &typhon.SizeMismatchError{From: 2, To: 0, Got: 1, Want: 2}, 2, true},
		{"timeout blames sender", &typhon.TimeoutError{Rank: 0, From: 1, After: time.Second}, 1, true},
		{"wrapped", &typhon.AbortError{Rank: 0, Cause: &typhon.RankPanicError{Rank: 1, Value: "x"}}, 1, true},
		{"anonymous", errors.New("plain"), -1, false},
		{"hydro", &hydro.ErrTangled{Element: 1, Volume: -1}, -1, false},
	}
	for _, tc := range cases {
		rank, ok := attribute(tc.err)
		if rank != tc.rank || ok != tc.ok {
			t.Errorf("%s: attribute = (%d, %v), want (%d, %v)", tc.name, rank, ok, tc.rank, tc.ok)
		}
	}
}

// TestLadderTransientThenEscalate walks the full ladder for a rank that
// keeps producing transient-looking faults at the ladder's constants:
// one retry (persistAfter 2), then a replacement, then — replace budget
// drained — abort.
func TestLadderTransientThenEscalate(t *testing.T) {
	if retryBudget != 2 || replaceBudget != 1 || persistAfter != 2 {
		t.Fatalf("ladder constants changed (retry %d, replace %d, persist %d): rewrite this walk",
			retryBudget, replaceBudget, persistAfter)
	}
	reg := obs.NewRegistry()
	sv := New(reg)
	mismatch := &typhon.SizeMismatchError{From: 1, To: 0, Got: 9, Want: 10}

	d := sv.Decide(mismatch, -1)
	if d.Action != ActionRetry || d.Class != ClassTransient {
		t.Fatalf("first fault: got %v/%v, want retry/transient", d.Action, d.Class)
	}
	d = sv.Decide(mismatch, -1)
	if d.Action != ActionReplace || d.Rank != 1 {
		t.Fatalf("second fault: got %v rank %d, want replace rank 1", d.Action, d.Rank)
	}
	if got := sv.Incarnation(1); got != 1 {
		t.Fatalf("incarnation(1) = %d, want 1", got)
	}
	d = sv.Decide(mismatch, -1)
	if d.Action != ActionAbort {
		t.Fatalf("third fault: got %v, want abort (replace budget drained)", d.Action)
	}
	snap := reg.Snapshot()
	if snap.Counters["supervise_retry_total"] != 1 ||
		snap.Counters["supervise_replace_total"] != 1 ||
		snap.Counters["supervise_repart_total"] != 0 {
		t.Fatalf("counters = %v", snap.Counters)
	}
}

// TestLadderPanicReplacesImmediately: a rank panic skips the retry rung
// even with budget left.
func TestLadderPanicReplacesImmediately(t *testing.T) {
	sv := New(nil)
	d := sv.Decide(&typhon.RankPanicError{Rank: 2, Value: "boom"}, -1)
	if d.Action != ActionReplace || d.Rank != 2 {
		t.Fatalf("got %v rank %d, want replace rank 2", d.Action, d.Rank)
	}
	if sv.Retries() != 0 || sv.Replaces() != 1 {
		t.Fatalf("retries %d replaces %d, want 0/1", sv.Retries(), sv.Replaces())
	}
}

// TestLadderUnattributableTransient: transient faults that name no rank
// retry until the budget drains and then abort — there is no rank to
// replace.
func TestLadderUnattributableTransient(t *testing.T) {
	sv := New(nil)
	collapse := &hydro.ErrDtCollapse{Dt: 1e-14, Element: 0}
	for i := 0; i < retryBudget; i++ {
		if d := sv.Decide(collapse, -1); d.Action != ActionRetry {
			t.Fatalf("fault %d: got %v, want retry", i, d.Action)
		}
	}
	if d := sv.Decide(collapse, -1); d.Action != ActionAbort {
		t.Fatalf("got %v, want abort after retry budget", d.Action)
	}
}

// TestLadderFallbackRankAttribution: when the error names no rank the
// driver's fallback attribution feeds the escalation history: the
// rank's persistAfter-th fault replaces it, with retry budget to spare.
func TestLadderFallbackRankAttribution(t *testing.T) {
	sv := New(nil)
	nf := &hydro.ErrNonFinite{Field: "rho", Index: 0, Global: 0}
	for i := 1; i < persistAfter; i++ {
		if d := sv.Decide(nf, 3); d.Action != ActionRetry {
			t.Fatalf("fault %d: got %v, want retry", i, d.Action)
		}
	}
	if sv.Retries() >= retryBudget {
		t.Fatalf("retry budget %d drained before escalation: the replacement below would not be the history's doing", retryBudget)
	}
	d := sv.Decide(nf, 3)
	if d.Action != ActionReplace || d.Rank != 3 {
		t.Fatalf("fault %d: got %v rank %d, want replace rank 3", persistAfter, d.Action, d.Rank)
	}
}
