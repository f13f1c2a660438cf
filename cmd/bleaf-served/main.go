// Command bleaf-served is the BookLeaf simulation service: a
// long-running daemon that accepts input decks over HTTP, runs up to
// -workers of them at once, and serves results, progress and metrics
// back as JSON.
//
//	bleaf-served -addr :8080 -workers 4 -threads 2
//
// The first line on standard output names the address actually bound,
// so -addr 127.0.0.1:0 picks a free port and reports it.
//
//	# submit a deck, poll it, fetch the result
//	curl -d @decks/sod.deck localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/j000001
//	curl localhost:8080/v1/jobs/j000001/metrics
//	curl -X DELETE localhost:8080/v1/jobs/j000001
//
// Priorities: a deck submitted with "X-Priority: 10" outranks the
// default 0; when every worker is busy, a strictly higher-priority
// submission preempts the weakest running job through an in-memory
// checkpoint — the evicted job re-queues and later resumes from the
// exact step it was parked at, bit for bit.
//
// Admission control: every deck's cost is predicted from its stated
// dimensions (internal/machine); when the predicted backlog would
// exceed -budget seconds the submission is rejected with 429 and a
// Retry-After estimating the drain time. Clients identify themselves
// with "X-Client: alice" (default "anon"); one client's backlog is
// further capped at -client-budget seconds — past it the 429 carries
// code client_over_quota instead of overloaded, and other clients'
// decks still admit.
//
// Durability: with -state-dir the daemon journals every submission and
// outcome to an fsynced NDJSON log in that directory, spills preemption
// checkpoints next to it (plus a periodic spill of long legs every
// -spill-every, and a final spill on graceful shutdown), writes each
// done job's result there as <id>.res and serves it from the file, and
// on restart replays it all — queued decks re-admit, interrupted jobs
// resume bitwise from their last spill, the retained done jobs serve
// byte-identical results, and the learned calibration scale survives
// the bounce.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bookleaf/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bleaf-served:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 2, "concurrent simulations")
		threads  = flag.Int("threads", 1, "threads of each one-rank job, whatever its deck declares")
		budget   = flag.Float64("budget", 600, "admission budget: max predicted backlog seconds")
		maxDeck  = flag.Int64("max-deck-bytes", 1<<20, "largest accepted deck body")
		maxRanks = flag.Int("max-ranks", 0, "largest deck-declared rank count admitted, [supervise] repart_ranks included (0 = default)")
		maxThr   = flag.Int("max-threads", 0, "largest deck-declared thread count admitted (0 = default)")
		maxEl    = flag.Int("max-elements", 0, "largest deck mesh (nx*ny) admitted (0 = default)")
		maxTerm  = flag.Int("max-terminal-jobs", 0, "finished jobs retained for GET before eviction; with -state-dir a done job's fields are in its result file, not memory (0 = default)")
		stateDir = flag.String("state-dir", "", "durable state directory: journal, checkpoint spills and done jobs' result files; empty = in-memory")
		spill    = flag.Duration("spill-every", 0, "periodic checkpoint spill cadence for long-running legs (0 = 60s; requires -state-dir)")
		clientB  = flag.Float64("client-budget", 0, "per-client backlog quota in predicted seconds (0 = half of -budget; negative disables)")
	)
	flag.Parse()

	quota := *clientB
	if quota == 0 {
		quota = *budget / 2
	} else if quota < 0 {
		quota = 0
	}
	srv, err := serve.Open(serve.Options{
		Workers: *workers, Threads: *threads,
		BudgetSeconds: *budget, MaxDeckBytes: *maxDeck,
		MaxRanks: *maxRanks, MaxThreads: *maxThr,
		MaxElements: *maxEl, MaxTerminalJobs: *maxTerm,
		StateDir: *stateDir, SpillInterval: *spill,
		ClientBudgetSeconds: quota,
	})
	if err != nil {
		return err
	}

	// Handle signals before the start-up line announces the daemon, so a
	// SIGTERM sent as soon as it is read still shuts down cleanly.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	durable := "in-memory"
	if *stateDir != "" {
		durable = "state-dir " + *stateDir
	}
	fmt.Printf("bleaf-served: listening on %s (%d worker(s) x %d thread(s), budget %.0fs, %s)\n",
		ln.Addr(), *workers, *threads, *budget, durable)

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-sig:
	}
	fmt.Println("bleaf-served: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		srv.Close()
		return err
	}
	srv.Close()
	return nil
}
